(** 63-wide bit-parallel simulation frames with bit-sliced toggle
    counting: 63 lanes, native ints, no allocation.

    One native [int] word per node carries up to 63 consecutive
    simulation cycles: lane [l] is bit [l]. The caller writes the
    source words of a frame, calls {!step}, and the kernel
    ({!Netlist.Compiled.eval_lanes}) evaluates the whole combinational
    core once for all lanes. It then diffs every word against itself
    shifted by one lane (lane 0 against the final lane of the previous
    frame), popcounts every non-zero diff for the per-node count and buffers
    it, and one {!Lane_counter.count} over the buffer gives the per-lane
    counts.

    This is the engine under the scan-shift measurement in
    {!Scan.Scan_sim}: during shift the chain is a pure shift register,
    so every lane's pseudo-input values are known in advance and 63
    shift cycles cost one combinational sweep. A toggle count is the
    settled-state Hamming distance between consecutive lanes (zero
    delay: no glitches), the same count as replaying the cycles one by
    one through an event-driven simulator. *)

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
    writes the source entries; {!step} overwrites every non-source
    entry. *)

val step : t -> from:int -> count:int -> unit
(** Evaluate one frame of [count] lanes (1..63) and count the toggles
    of lanes [from .. count - 1]: per-node counts (lane 0 against the
    previous frame's final lane) add into {!toggles} /
    {!total_toggles}, and the frame's per-lane sums go to
    {!lane_toggles}. The lanes below [from] settle without being
    counted (a session's initial settle is lane 0 of its first frame,
    stepped with [from = 1]); their {!lane_toggles} entries are 0.
    Lanes at index [count] and above are ignored.
    @raise Invalid_argument unless [1 <= count <= 63] and
    [0 <= from <= count]. *)

val lane_toggles : t -> int array
(** Length {!Netlist.Compiled.lanes}; entry [l] = total toggles in
    lane [l] of the last frame (aliased; rewritten by every {!step}). *)

val toggles : t -> int array
(** Accumulated per-node toggle counts (aliased). *)

val total_toggles : t -> int

val final_value : t -> int -> bool
(** Node value in the final lane of the last frame — the "current"
    settled state at a frame boundary. *)
