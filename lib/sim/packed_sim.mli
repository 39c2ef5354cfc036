(** 63-wide bit-parallel simulation frames with bit-sliced toggle
    counting: 63 lanes, native ints, no allocation.

    One native [int] word per node carries up to 63 consecutive
    simulation cycles: lane [l] is bit [l]. The caller writes the
    source words of a frame and calls {!step}. The frame is
    event-driven at word granularity ({!Netlist.Compiled.eval_events}):
    a node is {e active} when its word, on the frame's lanes, is not
    the broadcast of its value in the previous frame's final lane. Only
    what the active sources reach is evaluated, and a node that comes
    out quiet holds the broadcast of its value on all 63 lanes, so its
    word stays right for any later frame whatever that frame's lane
    count. Only the active nodes are diffed against themselves shifted
    by one lane (lane 0 against the final lane of the previous frame):
    each non-zero diff is popcounted for the per-node count and
    buffered, and one {!Lane_counter.count} over the buffer gives the
    per-lane counts. A quiet node adds no toggle, so the counts are
    those of a full sweep over every node.

    This is the engine under the scan-shift measurement in
    {!Scan.Scan_sim}: during shift the chain is a pure shift register,
    so every lane's pseudo-input values are known in advance and 63
    shift cycles cost one combinational sweep, or much less when muxing
    holds most of the core still. A toggle count is the settled-state
    Hamming distance between consecutive lanes (zero delay: no
    glitches), the same count as replaying the cycles one by one
    through an event-driven simulator. *)

open Netlist

(** Per-lane counting of lane masks, bit-sliced: plane [b] is one
    native [int] holding bit [b] of every lane's count. A caller buffers
    its masks (bit [l] of a mask is lane [l]) and counts them in one
    call, so the carry-save adds run in registers inside this module
    rather than one cross-module call per mask, which [-opaque] builds
    never inline. *)
module Lane_counter : sig
  type t

  val create : max:int -> t
  (** Planes for counts up to [max].
      @raise Invalid_argument if [max] is negative. *)

  val count : t -> int array -> off:int -> len:int -> int array -> unit
  (** [count t masks ~off ~len out] writes into [out.(0 .. lanes-1)],
      for every lane, how many of [masks.(off) .. masks.(off+len-1)]
      have its bit set. Eight masks at a time go through seven
      branch-free carry-save adders (Harley-Seal) with the weight-1, -2
      and -4 planes in locals, and only each block's weight-8 carry
      ripples into the planes; the last [len mod 8] masks take a half
      adder per weight. The planes are then read out: the low seven
      eight lanes at a time through a byte table, the ones above (counts
      of 128 or more) lane by lane, and only up to the highest lane
      with a non-zero count. No allocation.
      @raise Invalid_argument if [len > max], if the slice is not inside
      [masks], or if [out] is shorter than {!Netlist.Compiled.lanes}. *)
end

type t

val create : Compiled.t -> t
(** All scratch is preallocated here; {!step} never allocates. *)

val words : t -> int array
(** Node-indexed lane words (aliased). Before each {!step} the caller
    writes the source entries; the non-source entries are the
    simulator's and the caller must not write them. After a {!step}
    every entry holds its node's lanes for the frame's lanes, and a
    non-source node that was quiet in the frame holds the broadcast of
    its value on all 63 lanes. *)

val step : t -> from:int -> count:int -> unit
(** Evaluate one frame of [count] lanes (1..63) and count the toggles
    of lanes [from .. count - 1]: per-node counts (lane 0 against the
    previous frame's final lane) add into {!toggles} /
    {!total_toggles}, and the frame's per-lane sums go to
    {!lane_toggles}. The lanes below [from] settle without being
    counted (a session's initial settle is lane 0 of its first frame,
    stepped with [from = 1]); their {!lane_toggles} entries are 0.
    Lanes at index [count] and above are ignored.

    The first frame after {!create} evaluates every node against a
    previous value of 0. Every later frame finds its active sources
    itself and evaluates only what they can reach (see the module doc),
    so its cost follows the frame's activity. It writes each source
    word's lanes from [count] up with the word's lane [count - 1].
    @raise Invalid_argument unless [1 <= count <= 63] and
    [0 <= from <= count]. *)

val active : t -> int array
(** The last frame's active nodes (aliased, read-only; rewritten by
    every {!step}): entries [0 .. active_count t - 1], the sources
    first. A node is active when its word, on the frame's lanes,
    differs from the broadcast of its final value in the frame before
    (for the first frame, from 0). Every node that toggled in the frame
    is listed, and every node not listed held the value it ended the
    frame before with on all of the frame's lanes. *)

val active_count : t -> int

val node_evals : t -> int
(** Node evaluations over all frames so far: every non-source node for
    the first frame, then the ones each frame reached. *)

val lane_toggles : t -> int array
(** Length {!Netlist.Compiled.lanes}; entry [l] = total toggles in
    lane [l] of the last frame (aliased; rewritten by every {!step}). *)

val toggles : t -> int array
(** Accumulated per-node toggle counts (aliased). *)

val total_toggles : t -> int

val final_value : t -> int -> bool
(** Node value in the final lane of the last frame — the "current"
    settled state at a frame boundary. *)
