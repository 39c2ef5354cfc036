(** Dynamic power from switching activity (Eq. (1) of the paper).

    P_dyn = 1/2 f Vdd^2 (sum_i alpha_i C_i), where alpha_i is the node's
    toggle rate and C_i its switched capacitance (output load plus the
    cell's internal nodes). The paper reports the frequency-independent
    quantity P_dyn / f in uW/Hz; so do we. *)

open Netlist

type report = {
  cycles : int;  (** cycles the toggle counts were accumulated over *)
  total_toggles : int;
  weighted_cap_ff : float;
      (** sum over nodes of toggles x switched capacitance, fF *)
  dynamic_per_hz_uw : float;  (** P_dyn / f, uW/Hz *)
}

val switched_cap : Circuit.t -> int -> float
(** Capacitance switched when node [id] toggles: its load plus its
    cell's internal capacitance, fF. Output markers contribute 0 (the
    pad load is already in the driver's load). *)

val of_toggles : Circuit.t -> toggles:int array -> cycles:int -> report
(** Fold per-node toggle counts (as produced by {!Sim.Packed_sim}) into
    the Eq. (1) figure.
    @raise Invalid_argument if [cycles <= 0] or array length mismatch. *)

val pp_report : Format.formatter -> report -> unit
