open Netlist

let lanes = Compiled.lanes

module Lane_counter = struct
  (* Plane [b] holds bit [b] of the count of every lane (lane [l] is bit
     [l]). Adding a mask is a ripple carry through the planes: a half
     adder per plane until the carry dies out. *)
  type t = { max : int; planes : int array; mutable adds : int }

  let create ~max =
    if max < 0 then invalid_arg "Packed_sim.Lane_counter.create: negative max";
    let bits = ref 1 in
    while 1 lsl !bits <= max do
      incr bits
    done;
    { max; planes = Array.make !bits 0; adds = 0 }

  let clear t =
    Array.fill t.planes 0 (Array.length t.planes) 0;
    t.adds <- 0

  (* no lane's count can exceed the number of adds, so bounding the
     adds keeps every carry inside the planes *)
  let add t m =
    if t.adds >= t.max then invalid_arg "Packed_sim.Lane_counter.add: past max";
    t.adds <- t.adds + 1;
    let planes = t.planes in
    let c = ref m and b = ref 0 in
    while !c <> 0 do
      let p = planes.(!b) in
      planes.(!b) <- p lxor !c;
      c := p land !c;
      incr b
    done

  (* [spread.(x)]: bit [i] of the byte [x] moved to bit [7 * i], the
     bottom of the [i]th 7-bit field *)
  let spread =
    Array.init 256 (fun x ->
        let r = ref 0 in
        for i = 0 to 7 do
          if x land (1 lsl i) <> 0 then r := !r lor (1 lsl (7 * i))
        done;
        !r)

  let read t out =
    if Array.length out < lanes then
      invalid_arg "Packed_sim.Lane_counter.read: array shorter than lanes";
    let planes = t.planes in
    (* no count exceeds the adds, so the planes past their bit length
       are zero *)
    let n = ref 0 in
    while !n < Array.length planes && 1 lsl !n <= t.adds do
      incr n
    done;
    let n = !n in
    let any = ref 0 in
    for b = 0 to n - 1 do
      any := !any lor planes.(b)
    done;
    (* the bytes of lanes up to the highest set one: a short frame
       costs only its own lanes *)
    let bytes = ref 0 in
    while !bytes < 8 && !any lsr (8 * !bytes) <> 0 do
      incr bytes
    done;
    (* planes 0-6, eight lanes at a time: the sum of their spread bytes,
       each shifted by its plane, holds eight lanes' 7-bit counts *)
    for j = 0 to !bytes - 1 do
      let sh = 8 * j in
      let acc = ref 0 in
      for b = 0 to min n 7 - 1 do
        acc := !acc + (spread.((planes.(b) lsr sh) land 255) lsl b)
      done;
      let acc = !acc in
      out.(sh) <- acc land 127;
      out.(sh + 1) <- (acc lsr 7) land 127;
      out.(sh + 2) <- (acc lsr 14) land 127;
      out.(sh + 3) <- (acc lsr 21) land 127;
      out.(sh + 4) <- (acc lsr 28) land 127;
      out.(sh + 5) <- (acc lsr 35) land 127;
      out.(sh + 6) <- (acc lsr 42) land 127;
      if sh + 7 < lanes then out.(sh + 7) <- (acc lsr 49) land 127
    done;
    let above = min lanes (8 * !bytes) in
    Array.fill out above (lanes - above) 0;
    (* planes 7 and up (counts of 128 or more), lane by lane *)
    for b = 7 to n - 1 do
      let p = ref planes.(b) and l = ref 0 in
      while !p <> 0 do
        out.(!l) <- out.(!l) lor ((!p land 1) lsl b);
        p := !p lsr 1;
        incr l
      done
    done
end

type t = {
  comp : Compiled.t;
  words : int array; (* node id's lanes *)
  last : int array; (* 0 or 1: final-lane value of the previous frame *)
  toggles : int array;
  mutable total : int;
  counter : Lane_counter.t; (* per-lane toggles of the recording frame *)
  lane_toggles : int array; (* [lanes] *)
}

let create comp =
  let n = Compiled.node_count comp in
  {
    comp;
    words = Array.make n 0;
    last = Array.make n 0;
    toggles = Array.make n 0;
    total = 0;
    counter = Lane_counter.create ~max:n;
    lane_toggles = Array.make lanes 0;
  }

let words t = t.words
let lane_toggles t = t.lane_toggles
let toggles t = t.toggles
let total_toggles t = t.total
let final_value t id = t.last.(id) <> 0

(* set bits of a 63-bit native int (branch-free SWAR; the top byte
   holds the sum, at most 63) *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let h_step = Telemetry.Histogram.make "sim.packed.step_s"

let step_untimed t ~count ~record =
  Compiled.eval_lanes t.comp t.words;
  if record then Lane_counter.clear t.counter;
  let m = if count = lanes then -1 else (1 lsl count) - 1 in
  for id = 0 to Compiled.node_count t.comp - 1 do
    let x = t.words.(id) in
    (* lane 0 diffs against the previous frame's final lane *)
    let d = (x lxor ((x lsl 1) lor t.last.(id))) land m in
    if record && d <> 0 then begin
      let p = popcount d in
      t.toggles.(id) <- t.toggles.(id) + p;
      t.total <- t.total + p;
      Lane_counter.add t.counter d
    end;
    t.last.(id) <- (x lsr (count - 1)) land 1
  done;
  if record then Lane_counter.read t.counter t.lane_toggles

let step t ~count ~record =
  if count < 1 || count > lanes then
    invalid_arg "Packed_sim.step: bad lane count";
  if not (Telemetry.enabled ()) then step_untimed t ~count ~record
  else begin
    let t0 = Telemetry.now () in
    step_untimed t ~count ~record;
    Telemetry.Histogram.observe h_step (Telemetry.now () -. t0)
  end
