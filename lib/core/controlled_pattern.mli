(** FindControlledInputPattern (Section 4, step 2): compute one vector
    for the controlled inputs (primary inputs + multiplexed
    pseudo-inputs) that suppresses the transitions propagating from the
    non-multiplexed pseudo-inputs as close to their origin as possible,
    choosing among blocking vectors by leakage observability.

    Loop: take the transition gate with the largest output capacitance
    (mc_tg), try to justify its controlling value onto one of its
    don't-care inputs (candidate order and the justification itself
    directed by leakage observability); on failure expose the gate's
    fanout to the transition set; repeat until the TGS empties. *)

open Netlist

type outcome = {
  values : Logic.t array;
      (** final three-valued assignment, fully propagated *)
  controlled : int list;  (** the controlled input node ids *)
  assignment : (int * Logic.t) list;
      (** value chosen per controlled input ([X] = still free) *)
  blocked_gates : int;  (** transition gates successfully blocked *)
  failed_gates : int;  (** gates whose transitions could not be blocked *)
  residual_transition_nodes : int;
      (** lines still toggling under the final assignment *)
}

val find :
  ?backtrack_limit:int ->
  direction:Justify.direction ->
  Circuit.t ->
  muxable:int list ->
  outcome
(** [muxable] comes from {!Mux_insertion.select}; pass [[]] together
    with [~direction:Structural] to reproduce the input-control
    baseline's search space ([8]). *)
