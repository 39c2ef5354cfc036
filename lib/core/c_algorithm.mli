(** The input-control baseline of Huang & Lee [8]: find a primary-input
    pattern that blocks scan-chain transitions inside the combinational
    logic during shifting. Same transition-blocking search as the
    proposed method but restricted to the primary inputs (no
    multiplexed pseudo-inputs) and undirected by leakage — exactly the
    comparison the paper's Table I makes. Leftover don't-care primary
    inputs are filled pseudo-randomly (the baseline has no leakage
    objective). Each justification gives up after {!Justify}'s 50
    backtracks, as in the proposed method. *)

open Netlist

type outcome = {
  pi_pattern : bool array;  (** fully-specified, positional over PIs *)
  blocked_gates : int;
  failed_gates : int;
  residual_transition_nodes : int;
}

val find : ?seed:int -> Circuit.t -> outcome
