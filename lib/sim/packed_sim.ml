open Netlist

module Lane_counter = struct
  (* Plane [b] holds bit [b] of the count of every lane (lane [l] is bit
     [l]). [count] keeps the weight-1, -2 and -4 planes in locals while
     it carry-save adds eight masks per block; only the block's weight-8
     carry ripples into the planes from plane 3 up. *)
  type t = { max : int; planes : int array }

  let create ~max =
    if max < 0 then invalid_arg "Packed_sim.Lane_counter.create: negative max";
    (* at least the three planes [count] keeps in locals *)
    let bits = ref 3 in
    while 1 lsl !bits <= max do
      incr bits
    done;
    { max; planes = Array.make !bits 0 }

  (* [spread.(x)]: bit [i] of the byte [x] moved to bit [7 * i], the
     bottom of the [i]th 7-bit field *)
  let spread =
    Array.init 256 (fun x ->
        let r = ref 0 in
        for i = 0 to 7 do
          if x land (1 lsl i) <> 0 then r := !r lor (1 lsl (7 * i))
        done;
        !r)

  (* the planes' per-lane counts of [len] masks into [out] *)
  let read t ~len out =
    let planes = t.planes in
    (* no count exceeds [len], so the planes past its bit length are
       zero *)
    let n = ref 0 in
    while !n < Array.length planes && 1 lsl !n <= len do
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
      if sh + 7 < Compiled.lanes then out.(sh + 7) <- (acc lsr 49) land 127
    done;
    let above = min Compiled.lanes (8 * !bytes) in
    Array.fill out above (Compiled.lanes - above) 0;
    (* planes 7 and up (counts of 128 or more), lane by lane *)
    for b = 7 to n - 1 do
      let p = ref planes.(b) and l = ref 0 in
      while !p <> 0 do
        out.(!l) <- out.(!l) lor ((!p land 1) lsl b);
        p := !p lsr 1;
        incr l
      done
    done

  (* ripple a weight-8 carry word into the planes from plane 3 up *)
  let carry8 planes c =
    let c = ref c and b = ref 3 in
    while !c <> 0 do
      let p = planes.(!b) in
      planes.(!b) <- p lxor !c;
      c := p land !c;
      incr b
    done

  (* Harley-Seal: a carry-save adder takes three words [a], [b], [c] of
     one weight to their sum bits [u lxor c] (same weight) and their
     carries [(a land b) lor (u land c)] (double weight), where
     [u = a lxor b], branch-free. Seven of them take [ones], [twos],
     [fours] and eight masks to new [ones], [twos], [fours] and one
     weight-8 carry. *)
  let count t (masks : int array) ~off ~len out =
    if len > t.max then invalid_arg "Packed_sim.Lane_counter.count: past max";
    if off < 0 || len < 0 || off > Array.length masks - len then
      invalid_arg "Packed_sim.Lane_counter.count: slice outside the masks";
    if Array.length out < Compiled.lanes then
      invalid_arg "Packed_sim.Lane_counter.count: array shorter than lanes";
    let planes = t.planes in
    (* no lane's count exceeds [len] <= [max], so the weight-8 carries
       stay inside the planes *)
    Array.fill planes 3 (Array.length planes - 3) 0;
    let ones = ref 0 and twos = ref 0 and fours = ref 0 in
    let i = ref off and stop = off + len in
    while !i <= stop - 8 do
      let k = !i in
      let o = !ones and tw = !twos and f = !fours in
      let m0 = masks.(k) and m1 = masks.(k + 1) in
      let u = o lxor m0 in
      let ta = (o land m0) lor (u land m1) and o = u lxor m1 in
      let m2 = masks.(k + 2) and m3 = masks.(k + 3) in
      let u = o lxor m2 in
      let tb = (o land m2) lor (u land m3) and o = u lxor m3 in
      let u = tw lxor ta in
      let fa = (tw land ta) lor (u land tb) and tw = u lxor tb in
      let m4 = masks.(k + 4) and m5 = masks.(k + 5) in
      let u = o lxor m4 in
      let ta = (o land m4) lor (u land m5) and o = u lxor m5 in
      let m6 = masks.(k + 6) and m7 = masks.(k + 7) in
      let u = o lxor m6 in
      let tb = (o land m6) lor (u land m7) and o = u lxor m7 in
      let u = tw lxor ta in
      let fb = (tw land ta) lor (u land tb) and tw = u lxor tb in
      let u = f lxor fa in
      let e = (f land fa) lor (u land fb) and f = u lxor fb in
      ones := o;
      twos := tw;
      fours := f;
      if e <> 0 then carry8 planes e;
      i := k + 8
    done;
    (* the last [len mod 8] masks: a half adder per weight *)
    while !i < stop do
      let m = masks.(!i) in
      let c2 = !ones land m in
      ones := !ones lxor m;
      let c4 = !twos land c2 in
      twos := !twos lxor c2;
      let c8 = !fours land c4 in
      fours := !fours lxor c4;
      if c8 <> 0 then carry8 planes c8;
      incr i
    done;
    planes.(0) <- !ones;
    planes.(1) <- !twos;
    planes.(2) <- !fours;
    read t ~len out
end

type t = {
  comp : Compiled.t;
  words : int array; (* node id's lanes *)
  last : int array; (* 0 or 1: final-lane value of the previous frame *)
  toggles : int array;
  mutable total : int;
  diffs : int array; (* the last frame's non-zero node diffs *)
  counter : Lane_counter.t; (* per-lane toggles of the last frame *)
  lane_toggles : int array; (* [Compiled.lanes] *)
  ev : Compiled.events; (* the event-driven frame *)
}

let create comp =
  let n = Compiled.node_count comp in
  {
    comp;
    words = Array.make n 0;
    last = Array.make n 0;
    toggles = Array.make n 0;
    total = 0;
    diffs = Array.make n 0;
    counter = Lane_counter.create ~max:n;
    lane_toggles = Array.make Compiled.lanes 0;
    ev = Compiled.events comp;
  }

let words t = t.words
let lane_toggles t = t.lane_toggles
let toggles t = t.toggles
let total_toggles t = t.total
let final_value t id = t.last.(id) <> 0
let active t = Compiled.active t.ev
let active_count t = Compiled.active_count t.ev
let node_evals t = Compiled.evaluations t.ev

(* set bits of a 63-bit native int (branch-free SWAR; the top byte
   holds the sum, at most 63) *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let h_step = Telemetry.Histogram.make "sim.packed.step_s"

(* A frame: {!Compiled.eval_events} evaluates what the active sources
   reach and lists the active nodes; only they can toggle. *)
let step_untimed t ~from ~count =
  Compiled.eval_events t.comp t.words ~base:t.last ~count t.ev;
  (* the counted lanes [from .. count - 1] *)
  let m =
    ((if count = Compiled.lanes then -1 else (1 lsl count) - 1) lsr from)
    lsl from
  in
  let words = t.words and last = t.last and toggles = t.toggles in
  let active = Compiled.active t.ev and diffs = t.diffs in
  let n_diffs = ref 0 and total = ref t.total in
  for i = 0 to Compiled.active_count t.ev - 1 do
    let id = active.(i) in
    let x = words.(id) in
    (* lane 0 diffs against the previous frame's final lane *)
    let d = (x lxor ((x lsl 1) lor last.(id))) land m in
    if d <> 0 then begin
      let p = popcount d in
      toggles.(id) <- toggles.(id) + p;
      total := !total + p;
      diffs.(!n_diffs) <- d;
      incr n_diffs
    end;
    last.(id) <- (x lsr (count - 1)) land 1
  done;
  t.total <- !total;
  Lane_counter.count t.counter diffs ~off:0 ~len:!n_diffs t.lane_toggles

let step t ~from ~count =
  if count < 1 || count > Compiled.lanes then
    invalid_arg "Packed_sim.step: bad lane count";
  if from < 0 || from > count then invalid_arg "Packed_sim.step: bad first lane";
  if not (Telemetry.enabled ()) then step_untimed t ~from ~count
  else begin
    let t0 = Telemetry.now () in
    step_untimed t ~from ~count;
    Telemetry.Histogram.observe h_step (Telemetry.now () -. t0)
  end
