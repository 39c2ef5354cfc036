(** Event-driven two-valued simulator with per-node toggle counting.

    The engine of the scan-replay oracle ({!Scan_oracle}), which
    applies one source change set per shift/capture cycle and folds the
    accumulated per-node toggle counts into the switching-activity term
    of Eq. (1). Events propagate level by level, so a change that gets
    blocked (by a controlling side-input) costs nothing further —
    exactly the effect the paper's transition-blocking vector
    exploits. *)

open Netlist

type t

val create : Circuit.t -> t
(** Compiles the circuit (see {!Netlist.Compiled}) — structural edits
    to [c] after [create] are not observed by this simulator. *)

val circuit : t -> Circuit.t

val compiled : t -> Compiled.t
(** The flat form this simulator runs on. *)

val values : t -> bool array
(** Current value of every node (aliased, do not mutate). *)

val init : t -> (int -> bool) -> unit
(** Set every source node (position-independent: takes node ids) and
    propagate fully, without counting toggles. Resets toggle counts. *)

val set_sources : t -> (int * bool) list -> int
(** Apply the given (source node id, value) changes and propagate
    events; counts every node toggle (including the sources') into the
    per-node counters and returns the number of toggles caused.
    @raise Invalid_argument if a node is not a source. *)

val iter_last_changes : t -> (int -> unit) -> unit
(** Iterate the node ids toggled by the most recent [set_sources] call
    (any order, no allocation); lets power accounting update
    incrementally. *)

val toggle_counts : t -> int array
(** Accumulated toggles per node id since the last [init]/[reset_counts]
    (aliased, do not mutate). *)

val total_toggles : t -> int

val reset_counts : t -> unit
