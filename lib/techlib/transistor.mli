(** Analytic leakage model of a 45 nm MOS transistor.

    This module replaces the paper's HSPICE/BSIM4 characterisation runs.
    It implements the two equations the paper quotes: the BSIM
    subthreshold current (Eq. (2)-(3)) and the Schuegraf-Hu direct
    tunnelling gate current (Eq. (4)), plus a numeric solver for the
    common current of a series transistor stack (the "stack effect"),
    which HSPICE resolves implicitly. Units: volts, amperes, metres. *)

type polarity =
  | Nmos
  | Pmos

type params = {
  polarity : polarity;
  w : float;  (** channel width, m *)
  l_eff : float;  (** effective channel length, m *)
  vt0 : float;  (** zero-bias threshold voltage magnitude, V *)
  n_swing : float;  (** subthreshold swing coefficient n *)
  delta_body : float;  (** body-effect coefficient (linearised), 1/V *)
  eta_dibl : float;  (** DIBL coefficient, V/V *)
  mu0_cox : float;  (** mobility x oxide cap per area, A/V^2 *)
  t_ox : float;  (** oxide thickness, m *)
  phi_ox : float;  (** tunnelling barrier height, V *)
  jg_a : float;  (** tunnelling pre-factor A of Eq. (4) *)
  jg_b : float;  (** tunnelling exponent factor B of Eq. (4) *)
  r_on : float;  (** on-resistance used for conducting devices, ohm *)
}

val default_nmos : params
(** Representative 45 nm NMOS. *)

val default_pmos : params
(** Representative 45 nm PMOS (weaker tunnelling: hole barrier). *)

val thermal_voltage : float
(** kT/q at 300 K, V. *)

val subthreshold_current : params -> vgs:float -> vds:float -> vsb:float -> float
(** Eq. (2): current in amperes through an off (or weakly-on) device.
    Magnitudes are used for PMOS, so callers always pass the
    source-referred positive-channel convention. *)

val gate_tunneling_current : params -> vox:float -> float
(** Eq. (4) integrated over the gate area: amperes for oxide drop
    [vox] >= 0 (returns 0 for [vox] <= 0). *)

(** A device inside a series (pull-down / pull-up) stack. *)
type stack_device = {
  dev : params;
  gate_on : bool;  (** whether the gate turns the channel on *)
}

val stack_current : stack_device list -> v_rail:float -> float
(** [stack_current devices ~v_rail] solves for the common subthreshold
    current of a series stack whose far end sits at [v_rail] and whose
    near end is at 0 (source-referred), ordered from the grounded
    device upward. Uses nested bisection on the stack current and
    intermediate node voltages; this is the stack-effect computation
    HSPICE performs implicitly.
    @raise Invalid_argument on an empty stack. *)

val stack_node_voltages : stack_device list -> v_rail:float -> float array
(** Intermediate node voltages (length [n-1]) found by the same solve,
    from the grounded end upward; used for gate-tunnelling [vox]
    estimation. *)

val stack_solve : stack_device list -> v_rail:float -> float * float array
(** [stack_current] and [stack_node_voltages] from one solve: a caller
    that needs both pays for the nested bisection once. *)
