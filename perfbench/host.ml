(* Host speed. The benchmark runs on shared machines whose speed drifts
   by 10-30% over seconds to tens of minutes, alike for every layer of
   the program (process CPU time drifts with wall time, so CPU time is
   no cure). A fixed reference loop, timed again and again through a
   run, measures that drift. Timing metrics are then reported at
   reference speed: a wall time multiplied by [nominal_s] over the
   reference loop's mean time in the same interval. On a host where
   the loop takes [nominal_s] the two agree; a change to the program
   moves the program's time but never the loop's.

   In-process workloads sample from a SIGALRM handler every
   [interval_s], so the loop runs throughout each op; the time the
   handler takes is subtracted from every interval it falls in. The
   serve-mix client samples between requests instead, since a signal
   would interrupt its blocking reads. *)

let now = Unix.gettimeofday

(* Reported times are those of a host on which the reference loop takes
   this long; on the shared 2-core x86 VM the benchmark was tuned on it
   takes 3-4 ms. Any fixed value would do: it only sets the scale. *)
let nominal_s = 0.003

let interval_s = 0.1

(* Sequential writes over an 8 MB table, twice: more than a core's L2,
   so the loop feels what slows the program on a shared host, the
   contention for the shared cache and memory. (A loop over a table
   that fits in L2 followed the program's drift far less closely.) It
   allocates nothing, so the program's heap and its collector cannot
   slow it; the table lies outside the OCaml heap, so the collector
   never scans it either. *)
let table =
  let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 20) in
  Bigarray.Array1.fill t 0;
  t

let reference () =
  for pass = 0 to 1 do
    for i = 0 to Bigarray.Array1.dim table - 1 do
      Bigarray.Array1.unsafe_set table i (i + pass)
    done
  done;
  ignore (Sys.opaque_identity table)

type t = {
  mutable samples : int;
  mutable ref_s : float;  (** summed reference-loop times *)
  mutable stolen_s : float;  (** wall time spent sampling *)
}

let create () = { samples = 0; ref_s = 0.0; stolen_s = 0.0 }

let sample (h : t) =
  let t0 = now () in
  reference ();
  let d = now () -. t0 in
  h.samples <- h.samples + 1;
  h.ref_s <- h.ref_s +. d;
  h.stolen_s <- h.stolen_s +. (now () -. t0)

(* Reference speed over all samples so far: above 1 on a host faster
   than the reference. 1 before the first sample. *)
let speed (h : t) = if h.samples = 0 then 1.0 else nominal_s /. (h.ref_s /. float_of_int h.samples)

(* A timed interval: its wall time less the sampling in it, and the
   samples taken in it. *)
type interval = { wall_s : float; samples : int; ref_s : float }

let none = { wall_s = 0.0; samples = 0; ref_s = 0.0 }

(* Two intervals as one, e.g. all the ops of one kind in a run. *)
let add a b = { wall_s = a.wall_s +. b.wall_s; samples = a.samples + b.samples; ref_s = a.ref_s +. b.ref_s }

(* [f]'s value and its interval. *)
let timed (h : t) f =
  let t0 = now () and n0 = h.samples and r0 = h.ref_s and s0 = h.stolen_s in
  let v = f () in
  let wall = now () -. t0 -. (h.stolen_s -. s0) in
  (v, { wall_s = wall; samples = h.samples - n0; ref_s = h.ref_s -. r0 })

(* An interval's reference speed. It uses the interval's own samples
   when there are enough to average over the host's sub-second jitter,
   and the whole run's speed otherwise; call it when the run's sampling
   is done. *)
let min_samples = 5

let speed_in h (i : interval) =
  if i.samples >= min_samples then nominal_s /. (i.ref_s /. float_of_int i.samples)
  else speed h

(* An interval's time at reference speed. *)
let at_speed h i = i.wall_s *. speed_in h i

(* Runs [f] with the SIGALRM sampler on. *)
let sampling h f =
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample h)) in
  let arm s = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = s; it_value = s }) in
  arm interval_s;
  Fun.protect
    ~finally:(fun () ->
      arm 0.0;
      Sys.set_signal Sys.sigalrm previous)
    f
