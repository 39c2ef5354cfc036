(** Per-cell, per-input-state leakage tables.

    The paper characterises every library cell with HSPICE (BSIM4,
    45 nm, 0.9 V) and stores one leakage value per input pattern; the
    algorithms then only ever read the tables. Here the tables are
    generated by the analytic stack model of {!Transistor} and
    calibrated so that the NAND2 row reproduces the paper's Figure 2
    exactly (A=nearest-rail input first):

    {v state  00   01   10   11
       nA     78   73  264  408 v}

    Input-state encoding: bit [i] of [state] is the logic value of
    input pin [i]; pin 0 sits at the rail end of the series stack
    (ground for NAND, Vdd for NOR), the last pin is nearest the
    output. Pin order matters: that asymmetry is exactly what the
    paper's gate input reordering step exploits. *)

val vdd : float
(** Supply voltage, 0.9 V. *)

val n_states : Cell.t -> int
(** [2 ^ fanin]. *)

val leakage_na : Cell.t -> state:int -> float
(** Calibrated leakage current drawn from the supply in the given
    input state, nA.
    @raise Invalid_argument if [state] is out of range or [cell] is not
    in {!Cell.all}. *)

val row : Cell.t -> float array
(** The cell's calibrated table: [(row cell).(state)] is
    [leakage_na cell ~state]. Every call returns the same physical
    array, shared by all callers: read it, never write it.
    @raise Invalid_argument if [cell] is not in {!Cell.all}. *)

val leakage_power_nw : Cell.t -> state:int -> float
(** [leakage_na * vdd]: static power in nW (Eq. (5) for one gate). *)

val raw_leakage_na : Cell.t -> state:int -> float
(** Uncalibrated model output, kept for inspection and tests. *)

val state_of_values : bool array -> int
(** Pack pin values (index 0 = pin 0) into a state. *)

val state_of_string : string -> int
(** ["01"] means pin0='0', pin1='1'. *)

val string_of_state : Cell.t -> int -> string

val min_leakage_state : Cell.t -> int
(** State with the smallest calibrated leakage. *)

val max_leakage_state : Cell.t -> int

val paper_nand2_na : float array
(** The four Figure 2 values, indexed by state. *)

val pp_table : Format.formatter -> Cell.t -> unit
(** Human-readable dump of one cell's calibrated table. *)
