open Netlist

type t = {
  comp : Compiled.t;
  words : int64 array; (* node id's 64 lanes *)
  diffs : int64 array;
  last : int64 array; (* 0L or 1L: final-lane value of the previous frame *)
  toggles : int array;
  mutable total : int;
  lane_toggles : int array; (* 64 *)
}

let lanes = 64

(* All scratch is sized once here: [step] creates no arrays, but every
   store into the [int64 array]s ([words], [diffs], [last]) boxes its
   word on the minor heap, 11 to 13 words per node per frame (62 Mw
   over the 1602 frames of one s5378 traditional measurement). *)
let create comp =
  let n = Compiled.node_count comp in
  {
    comp;
    words = Array.make n 0L;
    diffs = Array.make n 0L;
    last = Array.make n 0L;
    toggles = Array.make n 0;
    total = 0;
    lane_toggles = Array.make lanes 0;
  }

let compiled t = t.comp
let words t = t.words
let diffs t = t.diffs
let lane_toggles t = t.lane_toggles
let toggles t = t.toggles
let total_toggles t = t.total
let final_value t id = t.last.(id) <> 0L

let popcount (x : int64) =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    add
      (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

let h_step = Telemetry.Histogram.make "sim.packed.step_s"

let step_untimed t ~count ~record =
  Compiled.eval_words t.comp t.words;
  if record then Array.fill t.lane_toggles 0 lanes 0;
  let mask =
    if count = 64 then Int64.minus_one
    else Int64.sub (Int64.shift_left 1L count) 1L
  in
  let n = Compiled.node_count t.comp in
  for id = 0 to n - 1 do
    let x = t.words.(id) in
    (* lane 0 diffs against the previous frame's final lane *)
    let d =
      Int64.logand
        (Int64.logxor x (Int64.logor (Int64.shift_left x 1) t.last.(id)))
        mask
    in
    t.diffs.(id) <- d;
    if record && d <> 0L then begin
      let p = popcount d in
      t.toggles.(id) <- t.toggles.(id) + p;
      t.total <- t.total + p;
      (* distribute onto lanes, scanning 32-lane native-int halves so
         nothing boxes in the loop *)
      let lt = t.lane_toggles in
      let r = ref (Int64.to_int (Int64.logand d 0xFFFFFFFFL))
      and lane = ref 0 in
      while !r <> 0 do
        if !r land 1 = 1 then lt.(!lane) <- lt.(!lane) + 1;
        r := !r lsr 1;
        incr lane
      done;
      r := Int64.to_int (Int64.shift_right_logical d 32);
      lane := 32;
      while !r <> 0 do
        if !r land 1 = 1 then lt.(!lane) <- lt.(!lane) + 1;
        r := !r lsr 1;
        incr lane
      done
    end;
    t.last.(id) <- Int64.logand (Int64.shift_right_logical x (count - 1)) 1L
  done

let step t ~count ~record =
  if count < 1 || count > lanes then
    invalid_arg "Packed_sim.step: bad lane count";
  if not (Telemetry.enabled ()) then step_untimed t ~count ~record
  else begin
    let t0 = Telemetry.now () in
    step_untimed t ~count ~record;
    Telemetry.Histogram.observe h_step (Telemetry.now () -. t0)
  end
