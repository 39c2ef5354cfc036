(** Full-scan chains over a circuit's flip-flops.

    A [t] partitions the flip-flops into one or more chains, each fed by
    its own scan-in pin; every chain shifts by one cell per shift cycle,
    so a vector takes as many shift cycles as the longest chain has
    cells. The paper performs no scan-cell reordering and uses a single
    chain, so the default follows declaration order; other orders and
    multi-chain partitions are supported for experiments.

    Cells are numbered by {e chain position}: chain 0's cells first,
    scan-in end first, then chain 1's, and so on. With one chain the
    position is the index along that chain. {!Scan_sim} indexes its
    initial states and captured responses by these positions. *)

open Netlist

type t

val natural : Circuit.t -> t
(** One chain in [Circuit.dffs] order; position 0 is nearest scan-in. *)

val of_order : Circuit.t -> int array -> t
(** One chain in the given order.
    @raise Invalid_argument unless the array is a permutation of
    [Circuit.dffs]. *)

val of_orders : Circuit.t -> int array list -> t
(** Explicit chains, each scan-in end first; together they must form a
    partition of the flip-flops.
    @raise Invalid_argument otherwise. *)

val partition : Circuit.t -> chains:int -> t
(** Round-robin partition of [Circuit.dffs] into [chains] chains,
    clamped to at most one chain per flip-flop (one chain for a circuit
    without flip-flops): chain 0 gets cells 0, k, 2k, ...
    @raise Invalid_argument if [chains < 1]. *)

val circuit : t -> Circuit.t

val length : t -> int
(** Number of cells over all chains. *)

val cells : t -> int array
(** Flip-flop node ids by chain position (copy). *)

val cell_at : t -> int -> int

val position_of : t -> int -> int
(** Chain position of a flip-flop node id.
    @raise Not_found if the node is not in the chain. *)

val chain_count : t -> int

val chain_lengths : t -> int list
(** Cells per chain, chain 0 first. *)

val shift_cycles : t -> int
(** Shift cycles per vector: the longest chain's length. *)

val shift_in_sequence : t -> bool array -> bool array list
(** The scan-in bits, one array per shift cycle (first cycle first)
    holding one bit per chain, that load the given target state
    (indexed by chain position) after [shift_cycles] shifts. A chain
    shorter than the longest takes leading zeros, so that every chain
    lands on its target at the same cycle. *)
