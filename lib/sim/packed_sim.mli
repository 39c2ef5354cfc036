(** 64-wide bit-parallel simulation frames with popcount toggle
    accounting.

    One [int64] word per node carries up to 64 consecutive simulation
    cycles: lane [l] is bit [l]. The driver writes the source words of
    a frame, calls {!step}, and the kernel evaluates the whole
    combinational core once for all lanes, then counts per-node and
    per-lane toggles from [popcount (prev lxor cur)] — including the
    lane-0 boundary against the final lane of the previous frame.

    This is the engine under the packed scan-shift measurement in
    {!Scan.Scan_sim}: during shift the chain is a pure shift register,
    so every lane's pseudo-input values are known in advance and 64
    shift cycles cost one combinational sweep. Toggle counts are
    bit-identical to replaying the same cycles one by one through
    {!Event_sim} (both count settled-state Hamming distance between
    consecutive cycles). *)

open Netlist

type t

val create : Compiled.t -> t
(** All scratch ([words]/[diffs]/[last]/lane tallies) is preallocated
    here; {!step} never allocates. *)

val compiled : t -> Compiled.t

val lanes : int
(** 64: lanes per frame. *)

val words : t -> int64 array
(** Node-indexed lane words (aliased). Before each {!step} the driver
    writes the source entries; {!step} overwrites every non-source
    entry. *)

val step : t -> count:int -> record:bool -> unit
(** Evaluate one frame of [count] lanes (1..64). With [record], add
    per-node toggle counts (against the previous frame's final lane)
    into {!toggles} / {!total_toggles} and tally per-lane sums into
    {!lane_toggles}. Without it (initial settle), only the frame
    boundary state advances. Lanes at index [count] and above are
    ignored. *)

val diffs : t -> int64 array
(** Per-node toggle mask of the last frame (aliased, node-indexed):
    lane bit set iff the node's value at that lane differs from the
    lane before it (lane 0 diffing against the previous frame). Valid
    after {!step}, also when [record] was false. *)

val lane_toggles : t -> int array
(** Length 64; entry [l] = total toggles in lane [l] of the
    last recorded frame (aliased; cleared by every recording
    {!step}). *)

val toggles : t -> int array
(** Accumulated per-node toggle counts (aliased). *)

val total_toggles : t -> int

val final_value : t -> int -> bool
(** Node value in the final lane of the last frame — the "current"
    settled state at a frame boundary. *)

val popcount : int64 -> int
(** Number of set bits (branch-free SWAR; no hardware popcount
    dependency). *)
