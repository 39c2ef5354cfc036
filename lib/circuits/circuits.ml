open Netlist

let s27_bench_text =
  "# s27 (ISCAS89)\n\
   INPUT(G0)\n\
   INPUT(G1)\n\
   INPUT(G2)\n\
   INPUT(G3)\n\
   OUTPUT(G17)\n\
   G5 = DFF(G10)\n\
   G6 = DFF(G11)\n\
   G7 = DFF(G13)\n\
   G14 = NOT(G0)\n\
   G17 = NOT(G11)\n\
   G8 = AND(G14, G6)\n\
   G15 = OR(G12, G8)\n\
   G16 = OR(G3, G8)\n\
   G9 = NAND(G16, G15)\n\
   G10 = NOR(G14, G11)\n\
   G11 = NOR(G5, G9)\n\
   G12 = NOR(G1, G7)\n\
   G13 = NAND(G2, G12)\n"

let s27 () = Bench_parser.parse_string ~name:"s27" s27_bench_text

type profile = {
  name : string;
  n_pi : int;
  n_po : int;
  n_ff : int;
  n_gates : int;
  seed : int;
}

(* Published ISCAS89 interface statistics for the paper's Table I. *)
let table1_profiles =
  [
    { name = "s344"; n_pi = 9; n_po = 11; n_ff = 15; n_gates = 160; seed = 344 };
    { name = "s382"; n_pi = 3; n_po = 6; n_ff = 21; n_gates = 158; seed = 382 };
    { name = "s444"; n_pi = 3; n_po = 6; n_ff = 21; n_gates = 181; seed = 444 };
    { name = "s510"; n_pi = 19; n_po = 7; n_ff = 6; n_gates = 211; seed = 510 };
    { name = "s641"; n_pi = 35; n_po = 24; n_ff = 19; n_gates = 379; seed = 641 };
    { name = "s713"; n_pi = 35; n_po = 23; n_ff = 19; n_gates = 393; seed = 713 };
    { name = "s1196"; n_pi = 14; n_po = 14; n_ff = 18; n_gates = 529; seed = 1196 };
    { name = "s1238"; n_pi = 14; n_po = 14; n_ff = 18; n_gates = 508; seed = 1238 };
    { name = "s1423"; n_pi = 17; n_po = 5; n_ff = 74; n_gates = 657; seed = 1423 };
    { name = "s1494"; n_pi = 8; n_po = 19; n_ff = 6; n_gates = 647; seed = 1494 };
    { name = "s5378"; n_pi = 35; n_po = 49; n_ff = 179; n_gates = 2779; seed = 5378 };
    { name = "s9234"; n_pi = 36; n_po = 39; n_ff = 211; n_gates = 5597; seed = 9234 };
  ]

(* Deterministic scale tier: seeded profiles an order of magnitude
   beyond Table I, for exercising the pattern-parallel kernels where
   per-batch setup has fully amortised. Interface ratios follow the
   larger ISCAS89 entries (FFs ~1% of gates, wide PI/PO belts). *)
let scale_profiles =
  [
    {
      name = "g50k";
      n_pi = 64;
      n_po = 64;
      n_ff = 512;
      n_gates = 50_000;
      seed = 50_000;
    };
    {
      name = "g100k";
      n_pi = 96;
      n_po = 96;
      n_ff = 1024;
      n_gates = 100_000;
      seed = 100_000;
    };
  ]

(* Gate-kind distribution matching typical mapped ISCAS89 content:
   mostly 2-input NAND/NOR, a tail of wider gates, plenty of
   inverters. *)
let pick_kind rng =
  let r = Util.Rng.int rng 100 in
  if r < 30 then (Gate.Not, 1)
  else if r < 58 then (Gate.Nand, 2)
  else if r < 76 then (Gate.Nor, 2)
  else if r < 85 then (Gate.Nand, 3)
  else if r < 92 then (Gate.Nor, 3)
  else if r < 97 then (Gate.Nand, 4)
  else (Gate.Nor, 4)

(* Signals are created level by level (sources at level 0), so the
   signals eligible as fanins of a level-l gate are exactly a prefix of
   the creation order. A queue of not-yet-driving signals lets each new
   gate drain one, so no logic dangles; stale entries are skipped
   lazily, keeping picks O(1) amortised. *)
type pool = {
  mutable signals : int array;
  mutable count : int;
  mutable used : bool array;
  mutable level_of : int array;
  pending : int Queue.t;
  rng : Util.Rng.t;
}

let pool_create rng cap =
  {
    signals = Array.make (max cap 16) (-1);
    count = 0;
    used = Array.make (max cap 16) false;
    level_of = Array.make (max cap 16) 0;
    pending = Queue.create ();
    rng;
  }

let pool_add p id ~level =
  assert (p.count < Array.length p.signals && id < Array.length p.used);
  p.signals.(p.count) <- id;
  p.count <- p.count + 1;
  p.used.(id) <- false;
  p.level_of.(id) <- level;
  Queue.add id p.pending

let pool_mark_used p id = p.used.(id) <- true

(* Uniform pick among the first [limit] created signals, preferring the
   [prev_lo, prev_hi) slice (the previous level) for locality. *)
let pool_pick p ~limit ~prev_lo ~prev_hi ~exclude =
  let candidate () =
    if prev_hi > prev_lo && Util.Rng.int p.rng 100 < 60 then
      p.signals.(prev_lo + Util.Rng.int p.rng (prev_hi - prev_lo))
    else p.signals.(Util.Rng.int p.rng limit)
  in
  let rec go attempts =
    let cand = candidate () in
    if attempts > 0 && List.mem cand exclude then go (attempts - 1) else cand
  in
  go 8

(* Pop a signal that still drives nothing and sits below [max_level]. *)
let pool_take_unused p ~max_level ~exclude =
  let parked = ref [] in
  let rec go () =
    if Queue.is_empty p.pending then None
    else begin
      let cand = Queue.take p.pending in
      if p.used.(cand) then go ()
      else if p.level_of.(cand) >= max_level || List.mem cand exclude then begin
        parked := cand :: !parked;
        go ()
      end
      else Some cand
    end
  in
  let result = go () in
  List.iter (fun id -> Queue.add id p.pending) !parked;
  result

let target_depth n_gates =
  let log2 = log (float_of_int (max n_gates 2)) /. log 2.0 in
  max 8 (int_of_float (4.0 +. (3.5 *. log2)))

let generate prof =
  if prof.n_pi <= 0 || prof.n_po <= 0 || prof.n_ff < 0 || prof.n_gates <= 0 then
    invalid_arg "Circuits.generate: malformed profile";
  let rng = Util.Rng.create prof.seed in
  let b = Circuit.Builder.create ~name:prof.name () in
  let cap = prof.n_pi + prof.n_ff + prof.n_gates in
  let pool = pool_create rng cap in
  for i = 0 to prof.n_pi - 1 do
    pool_add pool (Circuit.Builder.add_input b (Printf.sprintf "pi%d" i)) ~level:0
  done;
  let ffs =
    Array.init prof.n_ff (fun i ->
        let id = Circuit.Builder.declare_dff b (Printf.sprintf "ff%d" i) in
        pool_add pool id ~level:0;
        id)
  in
  let depth = target_depth prof.n_gates in
  let per_level = max 1 (prof.n_gates / depth) in
  let gate_no = ref 0 in
  let level = ref 1 in
  let prev_lo = ref 0 and prev_hi = ref pool.count in
  while !gate_no < prof.n_gates do
    let level_start = pool.count in
    let remaining = prof.n_gates - !gate_no in
    let this_level = min remaining per_level in
    for _ = 1 to this_level do
      let kind, fanin = pick_kind rng in
      let limit = level_start in
      (* the first pin drains a yet-unused lower-level signal *)
      let first =
        match pool_take_unused pool ~max_level:!level ~exclude:[] with
        | Some id -> id
        | None ->
          pool_pick pool ~limit ~prev_lo:!prev_lo ~prev_hi:!prev_hi ~exclude:[]
      in
      let fanins = ref [ first ] in
      while List.length !fanins < fanin do
        let f =
          pool_pick pool ~limit ~prev_lo:!prev_lo ~prev_hi:!prev_hi
            ~exclude:!fanins
        in
        fanins := f :: !fanins
      done;
      List.iter (pool_mark_used pool) !fanins;
      let id =
        Circuit.Builder.add_gate b kind
          (Printf.sprintf "g%d" !gate_no)
          (List.rev !fanins)
      in
      incr gate_no;
      pool_add pool id ~level:!level
    done;
    prev_lo := level_start;
    prev_hi := pool.count;
    incr level
  done;
  (* Flip-flop D inputs and primary outputs drain the remaining unused
     signals first. *)
  let next_sink ~exclude =
    let id =
      match pool_take_unused pool ~max_level:max_int ~exclude with
      | Some id -> id
      | None ->
        pool_pick pool ~limit:pool.count ~prev_lo:!prev_lo ~prev_hi:!prev_hi
          ~exclude
    in
    pool_mark_used pool id;
    id
  in
  Array.iter
    (fun ff -> Circuit.Builder.connect_dff b ff ~d:(next_sink ~exclude:[ ff ]))
    ffs;
  for i = 0 to prof.n_po - 1 do
    ignore
      (Circuit.Builder.add_output b (Printf.sprintf "po%d" i)
         (next_sink ~exclude:[]))
  done;
  Circuit.Builder.build b

let by_name name =
  if name = "s27" then s27 ()
  else
    match
      List.find_opt
        (fun p -> p.name = name)
        (table1_profiles @ scale_profiles)
    with
    | Some p -> generate p
    | None -> raise Not_found

let list_columns name =
  let columns ~inputs ~outputs ~dffs ~gates =
    [
      ("inputs", inputs);
      ("outputs", outputs);
      ("dffs", dffs);
      ("gates", gates);
      ("nodes", inputs + outputs + dffs + gates);
    ]
  in
  if name = "s27" then
    let s = Circuit.stats (s27 ()) in
    columns ~inputs:s.Circuit.n_inputs ~outputs:s.Circuit.n_outputs
      ~dffs:s.Circuit.n_dffs ~gates:s.Circuit.n_gates
  else
    match
      List.find_opt
        (fun p -> p.name = name)
        (table1_profiles @ scale_profiles)
    with
    | Some p ->
      columns ~inputs:p.n_pi ~outputs:p.n_po ~dffs:p.n_ff ~gates:p.n_gates
    | None -> raise Not_found

let names =
  "s27"
  :: List.map (fun p -> p.name) table1_profiles
  @ List.map (fun p -> p.name) scale_profiles

let find name =
  match by_name name with
  | c -> Ok c
  | exception Not_found ->
    Error
      (Printf.sprintf "unknown circuit %S; valid benchmark names: %s" name
         (String.concat ", " names))
