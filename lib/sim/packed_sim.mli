(** 63-wide bit-parallel simulation frames with bit-sliced toggle
    counting: 63 lanes, native ints, no allocation.

    One native [int] word per node carries up to 63 consecutive
    simulation cycles: lane [l] is bit [l]. The caller writes the
    source words of a frame, calls {!step}, and the kernel
    ({!Netlist.Compiled.eval_lanes}) evaluates the whole combinational
    core once for all lanes. It then diffs every word against itself
    shifted by one lane (lane 0 against the final lane of the previous
    frame), popcounts the diff for the per-node count and feeds it into
    a {!Lane_counter} for the per-lane counts.

    This is the engine under the packed scan-shift measurement in
    {!Scan.Scan_sim}: during shift the chain is a pure shift register,
    so every lane's pseudo-input values are known in advance and 63
    shift cycles cost one combinational sweep. Toggle counts are
    bit-identical to replaying the same cycles one by one through
    {!Event_sim} (both count settled-state Hamming distance between
    consecutive cycles). *)

open Netlist

val lanes : int
(** {!Netlist.Compiled.lanes} (63): lanes per frame. *)

(** Per-lane counters for the {!lanes} lanes, bit-sliced: plane [b] is
    one native [int] holding bit [b] of every lane's count, so adding a
    lane mask is a few word operations and never allocates. *)
module Lane_counter : sig
  type t

  val create : max:int -> t
  (** Counters for up to [max] adds (so no lane exceeds [max]), all
      zero. @raise Invalid_argument if [max] is negative. *)

  val clear : t -> unit
  (** Zero every lane and the add count. *)

  val add : t -> int -> unit
  (** Add one to every lane whose bit is set in the mask (bit [l] is
      lane [l]).
      @raise Invalid_argument on the add past [max] since the last
      {!clear}. *)

  val read : t -> int array -> unit
  (** [read t out] writes every lane's count into [out.(0 .. lanes-1)]:
      the low seven planes eight lanes at a time through a byte table,
      the planes above (counts of 128 or more) lane by lane, and only
      up to the highest lane with a non-zero count. No allocation.
      @raise Invalid_argument if [out] is shorter than {!lanes}. *)
end

type t

val create : Compiled.t -> t
(** All scratch is preallocated here; {!step} never allocates. *)

val words : t -> int array
(** Node-indexed lane words (aliased). Before each {!step} the caller
    writes the source entries; {!step} overwrites every non-source
    entry. *)

val step : t -> count:int -> record:bool -> unit
(** Evaluate one frame of [count] lanes (1..63). With [record], add
    per-node toggle counts (against the previous frame's final lane)
    into {!toggles} / {!total_toggles} and the frame's per-lane sums
    into {!lane_toggles}. Without it (initial settle), only the frame
    boundary state advances. Lanes at index [count] and above are
    ignored. *)

val lane_toggles : t -> int array
(** Length {!lanes}; entry [l] = total toggles in lane [l] of the
    last recorded frame (aliased; rewritten by every recording
    {!step}). *)

val toggles : t -> int array
(** Accumulated per-node toggle counts (aliased). *)

val total_toggles : t -> int

val final_value : t -> int -> bool
(** Node value in the final lane of the last frame — the "current"
    settled state at a frame boundary. *)
