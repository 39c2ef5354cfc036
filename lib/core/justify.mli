(** PODEM-style justification of an internal objective from the
    controlled inputs only (Section 4): objective -> backtrace ->
    assign -> imply -> check, with backtracking over the decisions.

    Both decision points the paper identifies are steered by the
    chosen direction: which candidate input of a transition gate to
    set to the controlling value, and which don't-care fanin Backtrace
    descends into. With [Leakage_directed], justifying a 1 prefers the
    minimum-leakage-observability line and justifying a 0 the maximum
    (Section 4); [Structural] reproduces the undirected C-algorithm
    baseline (level-based easiest-first).

    An engine compiles the circuit once ({!Netlist.Compiled}) and
    precomputes every gate's candidate order for backtrace; it also
    owns the scratch state of one search, so it serves one caller at a
    time. *)

open Netlist

type direction =
  | Leakage_directed of Power.Observability.t
  | Structural

type t

val create : Circuit.t -> controllable:int list -> direction:direction -> t
(** [controllable] lists the source node ids the engine may assign
    (primary inputs and multiplexed pseudo-inputs). Each {!justify}
    call gives up after 50 backtracks. *)

val order_candidates : t -> value:Logic.t -> int list -> int list
(** Sort candidate lines for receiving [value] according to the
    engine's direction (used for the mc_tg input choice). *)

(** {1 Event-driven implication}

    The three-valued implication {!justify} runs after every decision
    and backtrack: only the fanout cones of the sources that changed
    are re-evaluated, level by level, on the compiled arrays. Exposed
    so its equivalence with a full sweep can be checked directly. *)

val set_source : t -> Logic.t array -> int -> Logic.t -> unit
(** [set_source t values src v] sets source [src] to [v] (possibly [X])
    and queues its fanouts; the implied values are stale until the next
    {!imply}. Several sources may be set before one {!imply}. *)

val imply : t -> Logic.t array -> unit
(** Re-evaluate the queued fanout cones in place. If [values] was fully
    implied before the {!set_source} calls, it equals a full
    three-valued sweep afterwards. *)

val justify : t -> values:Logic.t array -> int -> Logic.t -> Logic.t array option
(** [justify t ~values node v] attempts to drive [node] to [v] by
    assigning controlled inputs only, starting from the given
    three-valued assignment. On success returns the new fully
    propagated assignment (a fresh array; the input is not mutated);
    on failure returns [None]. Never un-assigns a value already
    definite in [values]. *)
