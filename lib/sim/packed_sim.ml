open Netlist

module Lane_counter = struct
  (* Plane [b] of a half holds bit [b] of the count of each of the
     half's 32 lanes. Adding a mask is a ripple carry through the
     planes: a half adder per plane until the carry dies out. *)
  type t = {
    max : int;
    lo : int array; (* lanes 0..31 *)
    hi : int array; (* lanes 32..63 *)
    mutable adds : int;
  }

  let create ~max =
    if max < 0 then invalid_arg "Packed_sim.Lane_counter.create: negative max";
    let bits = ref 1 in
    while 1 lsl !bits <= max do
      incr bits
    done;
    { max; lo = Array.make !bits 0; hi = Array.make !bits 0; adds = 0 }

  let clear t =
    Array.fill t.lo 0 (Array.length t.lo) 0;
    Array.fill t.hi 0 (Array.length t.hi) 0;
    t.adds <- 0

  let carry planes m =
    let c = ref m and b = ref 0 in
    while !c <> 0 do
      let p = planes.(!b) in
      planes.(!b) <- p lxor !c;
      c := p land !c;
      incr b
    done

  (* no bit position's count can exceed the number of adds, so bounding
     the adds keeps every carry inside the planes; bits above 31 count
     in their own positions, which [get] never reads *)
  let add t ~lo ~hi =
    if t.adds >= t.max then invalid_arg "Packed_sim.Lane_counter.add: past max";
    t.adds <- t.adds + 1;
    carry t.lo lo;
    carry t.hi hi

  let get t lane =
    if lane < 0 || lane >= 64 then
      invalid_arg "Packed_sim.Lane_counter.get: bad lane";
    let planes = if lane < 32 then t.lo else t.hi and l = lane land 31 in
    let n = ref 0 in
    for b = 0 to Array.length planes - 1 do
      n := !n lor (((planes.(b) lsr l) land 1) lsl b)
    done;
    !n
end

type t = {
  comp : Compiled.t;
  words : int64 array; (* node id's 64 lanes *)
  last : int array; (* 0 or 1: final-lane value of the previous frame *)
  toggles : int array;
  mutable total : int;
  counter : Lane_counter.t; (* per-lane toggles of the recording frame *)
  lane_toggles : int array; (* 64 *)
}

let lanes = 64

let create comp =
  let n = Compiled.node_count comp in
  {
    comp;
    words = Array.make n 0L;
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

(* set bits of a 32-bit native int (branch-free SWAR) *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) lsr 24) land 0xFF

let h_step = Telemetry.Histogram.make "sim.packed.step_s"

(* Every word is handled as two native-int halves of 32 lanes, so
   nothing in the loop boxes. *)
let step_untimed t ~count ~record =
  Compiled.eval_words t.comp t.words;
  if record then Lane_counter.clear t.counter;
  let m_lo = if count >= 32 then 0xFFFFFFFF else (1 lsl count) - 1 in
  let m_hi = if count <= 32 then 0 else (1 lsl (count - 32)) - 1 in
  for id = 0 to Compiled.node_count t.comp - 1 do
    let x = t.words.(id) in
    let x_lo = Int64.to_int x land 0xFFFFFFFF in
    let x_hi = Int64.to_int (Int64.shift_right_logical x 32) in
    (* lane 0 diffs against the previous frame's final lane, lane 32
       against lane 31 *)
    let d_lo = (x_lo lxor ((x_lo lsl 1) lor t.last.(id))) land m_lo in
    let d_hi = (x_hi lxor ((x_hi lsl 1) lor (x_lo lsr 31))) land m_hi in
    if record && (d_lo lor d_hi) <> 0 then begin
      let p = popcount32 d_lo + popcount32 d_hi in
      t.toggles.(id) <- t.toggles.(id) + p;
      t.total <- t.total + p;
      Lane_counter.add t.counter ~lo:d_lo ~hi:d_hi
    end;
    t.last.(id) <-
      (if count <= 32 then x_lo lsr (count - 1) else x_hi lsr (count - 33))
      land 1
  done;
  if record then
    for l = 0 to lanes - 1 do
      t.lane_toggles.(l) <- Lane_counter.get t.counter l
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
