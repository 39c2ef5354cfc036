(** Static power of a mapped circuit (Eq. (5)): the sum over gates of
    the table leakage for the gate's current input state, times Vdd.

    The per-gate input state is the tuple of fanin logic values; pin
    order matters (see {!Techlib.Leakage_table}), which is what the
    paper's gate input reordering step optimises. *)

open Netlist

val gate_state : Circuit.t -> bool array -> int -> int
(** Packed input state of gate [id] under node values [values]. *)

val gate_leakage_na : Circuit.t -> bool array -> int -> float
(** Leakage of one gate (nA); 0 for non-logic nodes. *)

val tables : Circuit.t -> float array array
(** Node-indexed leakage tables: [(tables c).(id).(state)] is
    [gate_leakage_na] of gate [id] in packed input state [state]; [[||]]
    for non-logic nodes. Hot loops index these instead of looking the
    cell up per evaluation. The rows are the library's
    ({!Techlib.Leakage_table.row}): gates of one cell share one
    physical row, so [==] on rows groups gates by cell. Rows are
    read-only; never write to them.
    @raise Invalid_argument if the circuit is not mapped. *)

val total_leakage_uw : Circuit.t -> bool array -> float
(** Static power of the whole combinational part, uW.
    @raise Invalid_argument if the circuit is not mapped or the value
    array has the wrong length. *)

val expected_gate_leakage_na : Circuit.t -> p_one:float array -> int -> float
(** Expected leakage of gate [id] when each node [n] is 1 with
    independent probability [p_one.(n)]; the building block of the
    leakage-observability propagation. *)

val expected_total_leakage_uw : Circuit.t -> p_one:float array -> float
