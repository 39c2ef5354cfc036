(* Compiled circuit form and 63-lane packed scan simulation: structural
   invariants of the CSR arrays, kernel-level cross-validation against
   the scalar evaluators, and golden equivalence — the packed scan
   simulator must reproduce the event-driven scan oracle
   ({!Scan_oracle}) exactly (toggles, per-cycle series, dynamic power,
   responses) with static power agreeing to float accumulation
   order. *)

open Netlist

let s27m = lazy (Techmap.Mapper.map (Circuits.s27 ()))
let s344 = lazy (Circuits.by_name "s344")
let s1196 = lazy (Circuits.by_name "s1196")

(* ---------- compiled form ---------- *)

let check_compiled_mirrors_circuit () =
  List.iter
    (fun c ->
      let comp = Compiled.of_circuit c in
      let n = Circuit.node_count c in
      Alcotest.(check int) "node count" n (Compiled.node_count comp);
      let fanin_off = Compiled.fanin_off comp in
      let fanin = Compiled.fanin comp in
      let fanout_off = Compiled.fanout_off comp in
      let fanout = Compiled.fanout comp in
      let opcode = Compiled.opcode comp in
      let levels = Compiled.levels comp in
      Array.iter
        (fun nd ->
          let id = nd.Circuit.id in
          Alcotest.(check int)
            "opcode round-trips" id
            (if
               Gate.equal_kind
                 (Compiled.kind_of_opcode opcode.(id))
                 nd.Circuit.kind
             then id
             else -1);
          Alcotest.(check (array int))
            "fanin slice" nd.Circuit.fanins
            (Array.sub fanin fanin_off.(id) (fanin_off.(id + 1) - fanin_off.(id)));
          Alcotest.(check (array int))
            "fanout slice" nd.Circuit.fanouts
            (Array.sub fanout fanout_off.(id)
               (fanout_off.(id + 1) - fanout_off.(id)));
          Alcotest.(check int) "level" (Circuit.level c id) levels.(id);
          Alcotest.(check bool)
            "source test" (Gate.is_source nd.Circuit.kind)
            (Compiled.is_source comp id))
        (Circuit.nodes c);
      Alcotest.(check (array int))
        "topo order" (Circuit.topo_order c) (Compiled.topo comp);
      let expected_eval =
        Array.of_list
          (List.filter
             (fun id -> not (Gate.is_source (Circuit.node c id).Circuit.kind))
             (Array.to_list (Circuit.topo_order c)))
      in
      Alcotest.(check (array int))
        "eval order" expected_eval (Compiled.eval_order comp))
    [ Lazy.force s27m; Lazy.force s344 ]

let check_eval_bool_matches_gate_eval () =
  let c = Lazy.force s344 in
  let comp = Compiled.of_circuit c in
  let n = Circuit.node_count c in
  let rng = Util.Rng.create 7 in
  let values = Array.make n false in
  for _ = 1 to 20 do
    for i = 0 to n - 1 do
      values.(i) <- Util.Rng.bool rng
    done;
    Array.iter
      (fun nd ->
        if not (Gate.is_source nd.Circuit.kind) then begin
          let expect =
            Gate.eval_bool nd.Circuit.kind
              (Array.map (fun f -> values.(f)) nd.Circuit.fanins)
          in
          if expect <> Compiled.eval_bool comp values nd.Circuit.id then
            Alcotest.failf "eval_bool mismatch at node %d" nd.Circuit.id
        end)
      (Circuit.nodes c)
  done

(* One [eval_lanes] sweep of s344 from random source words, checked
   lane by lane against [eval_bool], for every lane of the word. *)
let check_eval_lanes_matches_per_lane () =
  let c = Lazy.force s344 in
  let comp = Compiled.of_circuit c in
  let n = Circuit.node_count c in
  let rng = Util.Rng.create 13 in
  let words = Array.make n 0 in
  let lane_values = Array.make n false in
  for _ = 1 to 5 do
    Array.iter
      (fun id ->
        let w = ref 0 in
        for b = 0 to Compiled.lanes - 1 do
          if Util.Rng.bool rng then w := !w lor (1 lsl b)
        done;
        words.(id) <- !w)
      (Circuit.sources c);
    Compiled.eval_lanes comp words;
    for lane = 0 to Compiled.lanes - 1 do
      for i = 0 to n - 1 do
        lane_values.(i) <- (words.(i) lsr lane) land 1 <> 0
      done;
      Array.iter
        (fun nd ->
          if not (Gate.is_source nd.Circuit.kind) then
            if
              Compiled.eval_bool comp lane_values nd.Circuit.id
              <> lane_values.(nd.Circuit.id)
            then Alcotest.failf "lane %d disagrees at node %d" lane nd.Circuit.id)
        (Circuit.nodes c)
    done
  done

let check_packed_sim_toggle_counting () =
  let c = Lazy.force s27m in
  let comp = Compiled.of_circuit c in
  let ps = Sim.Packed_sim.create comp in
  let words = Sim.Packed_sim.words ps in
  let rng = Util.Rng.create 3 in
  let sources = Circuit.sources c in
  let n = Circuit.node_count c in
  (* reference: scalar per-lane states *)
  let prev = Array.make n false in
  let expected = Array.make n 0 in
  let scalar = Array.make n false in
  for frame = 1 to 4 do
    let count = 1 + Util.Rng.int rng Compiled.lanes in
    let lanes = Array.init count (fun _ -> Array.make (Array.length sources) false) in
    Array.iter (fun lane -> Array.iteri (fun i _ -> lane.(i) <- Util.Rng.bool rng) lane) lanes;
    Array.iteri
      (fun pos id ->
        let w = ref 0 in
        for l = 0 to count - 1 do
          if lanes.(l).(pos) then w := !w lor (1 lsl l)
        done;
        words.(id) <- !w)
      sources;
    Sim.Packed_sim.step ps ~from:0 ~count;
    let expected_lanes = Array.make Compiled.lanes 0 in
    for l = 0 to count - 1 do
      Array.iteri (fun pos id -> scalar.(id) <- lanes.(l).(pos)) sources;
      Array.iter
        (fun id ->
          if not (Gate.is_source (Circuit.node c id).Circuit.kind) then
            scalar.(id) <- Compiled.eval_bool comp scalar id)
        (Circuit.topo_order c);
      for i = 0 to n - 1 do
        (* [prev] starts all-false: the packed sim's first-ever lane
           diffs against last = 0 *)
        if scalar.(i) <> prev.(i) then begin
          expected.(i) <- expected.(i) + 1;
          expected_lanes.(l) <- expected_lanes.(l) + 1
        end
      done;
      Array.blit scalar 0 prev 0 n
    done;
    Alcotest.(check (array int))
      (Printf.sprintf "frame %d per-lane toggles" frame)
      expected_lanes
      (Array.copy (Sim.Packed_sim.lane_toggles ps))
  done;
  Alcotest.(check (array int))
    "per-node toggles" expected
    (Array.copy (Sim.Packed_sim.toggles ps));
  Alcotest.(check int)
    "total" (Array.fold_left ( + ) 0 expected)
    (Sim.Packed_sim.total_toggles ps)

(* Property: the lane counter's bulk count equals naive per-lane
   counting for random masks (the all-lanes mask among them) confined
   to the first 1..63 lanes, as a short frame's are. The masks sit in a
   buffer between junk words, so the slice starts at a non-zero [off];
   the lengths cover the eight-mask blocks, the scalar tail of a length
   not a multiple of 8, and counts past 127 (the planes read lane by
   lane); and a count of more than [max] masks raises. *)
let prop_lane_counter =
  let lanes = Compiled.lanes in
  let mask =
    let w21 = QCheck.Gen.int_bound 0x1FFFFF in
    QCheck.Gen.(
      frequency
        [
          (1, return (-1));
          (8, map3 (fun a b c -> a lor (b lsl 21) lor (c lsl 42)) w21 w21 w21);
        ])
  in
  QCheck.Test.make ~name:"lane counter equals naive per-lane counts"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         int_range 1 lanes >>= fun width ->
         let within = if width = lanes then -1 else (1 lsl width) - 1 in
         quad
           (list_size (int_range 0 300) (map (fun m -> m land within) mask))
           (int_range 0 9) (int_range 0 9) (int_range 0 3)))
    (fun (masks, before, after, slack) ->
      let module Lc = Sim.Packed_sim.Lane_counter in
      let n = List.length masks in
      (* junk around the slice: every lane set *)
      let buf =
        Array.concat
          [ Array.make before (-1); Array.of_list masks; Array.make after (-1) ]
      in
      let naive = Array.make lanes 0 in
      List.iter
        (fun m ->
          for l = 0 to lanes - 1 do
            naive.(l) <- naive.(l) + ((m lsr l) land 1)
          done)
        masks;
      let ctr = Lc.create ~max:(n + slack) in
      let got = Array.make lanes (-1) in
      Lc.count ctr buf ~off:before ~len:n got;
      Array.iteri
        (fun l want ->
          if got.(l) <> want then
            QCheck.Test.fail_reportf "lane %d: %d, naive %d" l got.(l) want)
        naive;
      (* a second count on the same counter starts from zero *)
      Lc.count ctr buf ~off:before ~len:n got;
      if got <> naive then QCheck.Test.fail_report "recount differs";
      (let tight = Lc.create ~max:n and buf = Array.append buf [| 1 |] in
       match Lc.count tight buf ~off:before ~len:(n + 1) got with
       | () -> QCheck.Test.fail_report "count past max did not raise"
       | exception Invalid_argument _ -> ());
      true)

(* Past 127 on every lane, through blocks and a tail, at a non-zero
   offset: 300 all-lanes masks count 300, and one more lane-0 mask
   makes lane 0 count 301. Then past 16383 on some lanes (plane 14 and
   up): 20000 masks of lanes 0-9, lane 61 in the first 16383 of them
   and lane 62 in the first 16384, and five more lane-0 masks. *)
let check_lane_counter_past_127 () =
  let module Lc = Sim.Packed_sim.Lane_counter in
  let lanes = Compiled.lanes in
  let buf = Array.concat [ [| 0; 0; 0 |]; Array.make 300 (-1); [| 1 |] ] in
  let ctr = Lc.create ~max:301 in
  let got = Array.make lanes 0 in
  Lc.count ctr buf ~off:3 ~len:301 got;
  Alcotest.(check (array int))
    "counts" (Array.init lanes (fun l -> if l = 0 then 301 else 300)) got;
  let big =
    Array.init 20005 (fun i ->
        if i >= 20000 then 1
        else
          0x3FF
          lor (Bool.to_int (i < 16383) lsl 61)
          lor (Bool.to_int (i < 16384) lsl 62))
  in
  Lc.count (Lc.create ~max:20005) big ~off:0 ~len:20005 got;
  Alcotest.(check (array int))
    "counts past 16383"
    (Array.init lanes (fun l ->
         match l with
         | 0 -> 20005
         | 61 -> 16383
         | 62 -> 16384
         | l when l < 10 -> 20000
         | _ -> 0))
    got;
  Alcotest.check_raises "out shorter than lanes"
    (Invalid_argument
       "Packed_sim.Lane_counter.count: array shorter than lanes") (fun () ->
      Lc.count ctr buf ~off:0 ~len:1 (Array.make (lanes - 1) 0));
  Alcotest.check_raises "slice past the masks"
    (Invalid_argument
       "Packed_sim.Lane_counter.count: slice outside the masks") (fun () ->
      Lc.count ctr buf ~off:4 ~len:301 got)

(* Property: [eval_lanes] equals [eval_bool] lane by lane on random
   circuits holding every logic gate kind at every fanin from 1 to 5
   that the kind allows (BUF and NOT take one), plus output markers:
   the straight-line INV and NAND/NOR2-4 cases and the generic folds
   (AND/OR/XOR/XNOR, BUF, 5-input NAND/NOR) all run. Pins read earlier
   nodes at random, repeats allowed. *)
let prop_eval_lanes_random_circuits =
  let lanes = Compiled.lanes in
  let kinds =
    Gate.[ (Buf, 1); (Not, 1) ]
    @ List.concat_map
        (fun k -> List.map (fun a -> (k, a)) [ 2; 3; 4; 5 ])
        Gate.[ And; Nand; Or; Nor; Xor; Xnor ]
  in
  QCheck.Test.make ~name:"random circuits, every width: eval_lanes = eval_bool"
    ~count:25 QCheck.int
    (fun seed ->
      let rng = Util.Rng.create seed in
      let module B = Circuit.Builder in
      let b = B.create ~name:"random" () in
      let n_in = 1 + Util.Rng.int rng 5 in
      let ffs =
        Array.init (Util.Rng.int rng 3) (fun i ->
            B.declare_dff b (Printf.sprintf "ff%d" i))
      in
      let pool =
        ref
          (Array.to_list ffs
          @ List.init n_in (fun i -> B.add_input b (Printf.sprintf "i%d" i)))
      in
      let pick () =
        let p = Array.of_list !pool in
        p.(Util.Rng.int rng (Array.length p))
      in
      (* every (kind, fanin) twice, in a random order, plus random gates *)
      let extra =
        List.init (Util.Rng.int rng 20) (fun _ ->
            List.nth kinds (Util.Rng.int rng (List.length kinds)))
      in
      let todo =
        List.map (fun x -> (Util.Rng.bits rng, x)) (kinds @ kinds @ extra)
        |> List.sort compare |> List.map snd
      in
      List.iteri
        (fun i (kind, arity) ->
          let g =
            B.add_gate b kind (Printf.sprintf "g%d" i)
              (List.init arity (fun _ -> pick ()))
          in
          pool := g :: !pool;
          if Util.Rng.int rng 4 = 0 then
            ignore (B.add_output b (Printf.sprintf "o%d" i) g))
        todo;
      Array.iter (fun f -> B.connect_dff b f ~d:(pick ())) ffs;
      let c = B.build b in
      let comp = Compiled.of_circuit c in
      let n = Circuit.node_count c in
      let words = Array.make n 0 in
      let word () =
        Util.Rng.bits rng
        lor (Util.Rng.bits rng lsl 30)
        lor (Util.Rng.bits rng lsl 60)
      in
      Array.iter (fun id -> words.(id) <- word ()) (Circuit.sources c);
      Compiled.eval_lanes comp words;
      let values = Array.make n false in
      for lane = 0 to lanes - 1 do
        Array.iter
          (fun id -> values.(id) <- (words.(id) lsr lane) land 1 <> 0)
          (Circuit.sources c);
        Array.iter
          (fun id ->
            if not (Compiled.is_source comp id) then begin
              values.(id) <- Compiled.eval_bool comp values id;
              if values.(id) <> ((words.(id) lsr lane) land 1 <> 0) then
                QCheck.Test.fail_reportf "lane %d disagrees at %s" lane
                  (Circuit.node c id).Circuit.name
            end)
          (Circuit.topo_order c)
      done;
      true)

(* ---------- oracle equivalence ---------- *)

let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a)

let check_results tag (s : Scan.Scan_sim.result) (p : Scan.Scan_sim.result) =
  Alcotest.(check int) (tag ^ " cycles") s.Scan.Scan_sim.cycles p.Scan.Scan_sim.cycles;
  Alcotest.(check int)
    (tag ^ " shift cycles")
    s.Scan.Scan_sim.shift_cycles p.Scan.Scan_sim.shift_cycles;
  Alcotest.(check (array int))
    (tag ^ " per-node toggles")
    s.Scan.Scan_sim.toggles p.Scan.Scan_sim.toggles;
  Alcotest.(check int)
    (tag ^ " total toggles")
    s.Scan.Scan_sim.total_toggles p.Scan.Scan_sim.total_toggles;
  Alcotest.(check (array int))
    (tag ^ " per-cycle toggles")
    s.Scan.Scan_sim.per_cycle_toggles p.Scan.Scan_sim.per_cycle_toggles;
  (* dynamic power is a pure function of toggles and cycles: exact *)
  Alcotest.(check bool)
    (tag ^ " dynamic identical")
    true
    (s.Scan.Scan_sim.dynamic = p.Scan.Scan_sim.dynamic);
  (* statics agree to accumulation order *)
  List.iter
    (fun (what, a, b) ->
      if not (close a b) then
        Alcotest.failf "%s %s: oracle %.17g vs packed %.17g" tag what a b)
    [
      ("avg static", s.Scan.Scan_sim.avg_static_uw, p.Scan.Scan_sim.avg_static_uw);
      ("peak static", s.Scan.Scan_sim.peak_static_uw, p.Scan.Scan_sim.peak_static_uw);
      ( "avg capture static",
        s.Scan.Scan_sim.avg_capture_static_uw,
        p.Scan.Scan_sim.avg_capture_static_uw );
    ]

let random_vectors rng c n =
  let len = Array.length (Circuit.sources c) in
  List.init n (fun _ -> Array.init len (fun _ -> Util.Rng.bool rng))

let policies c rng =
  let n_pi = Array.length (Circuit.inputs c) in
  let dffs = Circuit.dffs c in
  let forced =
    Array.to_list dffs
    |> List.filteri (fun i _ -> i mod 3 = 0)
    |> List.map (fun id -> (id, Util.Rng.bool rng))
  in
  [
    ("traditional", Scan.Scan_sim.traditional);
    ("enhanced", Scan.Scan_sim.enhanced_scan);
    ( "input-control",
      {
        Scan.Scan_sim.pi_during_shift =
          Some (Array.init n_pi (fun _ -> Util.Rng.bool rng));
        forced_pseudo = [];
        hold_previous_capture = false;
      } );
    ( "forced-pseudo",
      {
        Scan.Scan_sim.pi_during_shift =
          Some (Array.init n_pi (fun _ -> Util.Rng.bool rng));
        forced_pseudo = forced;
        hold_previous_capture = false;
      } );
  ]

(* The four policies above and one that forces every pseudo-input and
   holds a constant PI pattern, so every shift lane applies the same
   inputs. *)
let all_policies c rng =
  policies c rng
  @ [
      ( "all-forced",
        {
          Scan.Scan_sim.pi_during_shift =
            Some (Array.make (Array.length (Circuit.inputs c)) false);
          forced_pseudo =
            Array.to_list (Circuit.dffs c)
            |> List.map (fun id -> (id, Util.Rng.bool rng));
          hold_previous_capture = false;
        } );
    ]

(* A random partition: 1..n_ff non-empty chains over a shuffled cell
   order. *)
let random_partition rng c =
  let cells = Array.copy (Circuit.dffs c) in
  let n = Array.length cells in
  for i = n - 1 downto 1 do
    let j = Util.Rng.int rng (i + 1) in
    let t = cells.(i) in
    cells.(i) <- cells.(j);
    cells.(j) <- t
  done;
  let k = 1 + Util.Rng.int rng n in
  let lengths = Array.make k 1 in
  for _ = 1 to n - k do
    let i = Util.Rng.int rng k in
    lengths.(i) <- lengths.(i) + 1
  done;
  let chains = ref [] and start = ref n in
  for i = k - 1 downto 0 do
    start := !start - lengths.(i);
    chains := Array.sub cells !start lengths.(i) :: !chains
  done;
  Scan.Scan_chain.of_orders c !chains

(* Oracle ≡ packed on [n_vectors] vectors drawn from [seed] (the same
   vectors as [Atpg.Pattern_gen.random_vectors ~seed ~count:n_vectors]).
   [init_state] defaults to a seeded random chain state, [policies] to
   the four above and [chain] to the natural chain. *)
let check_oracle_agrees_on ?init_state ?(default_init = false)
    ?(policies = policies) ?chain name circuit ~seed ~n_vectors =
  let c = circuit in
  let chain =
    match chain with Some ch -> ch | None -> Scan.Scan_chain.natural c
  in
  let rng = Util.Rng.create seed in
  let vectors = random_vectors rng c n_vectors in
  (* [default_init]: both simulators run without [init_state] *)
  let init_state =
    if default_init then None
    else
      match init_state with
      | Some st -> Some st
      | None ->
        Some
          (Array.init (Scan.Scan_chain.length chain) (fun _ ->
               Util.Rng.bool rng))
  in
  List.iter
    (fun (tag, policy) ->
      let tag = Printf.sprintf "%s/%s/seed%d" name tag seed in
      let s = Scan_oracle.measure ?init_state c chain policy ~vectors in
      let p = Scan.Scan_sim.measure ?init_state c chain policy ~vectors in
      check_results tag s p;
      let rs = Scan_oracle.responses ?init_state c chain policy ~vectors in
      let rp =
        Scan.Scan_sim.responses ?init_state c chain policy ~vectors
      in
      Alcotest.(check (list (array bool))) (tag ^ " responses") rs rp)
    (policies c rng)

let check_golden_s344 () =
  check_oracle_agrees_on "s344" (Lazy.force s344) ~seed:1 ~n_vectors:12;
  check_oracle_agrees_on "s344" (Lazy.force s344) ~seed:2 ~n_vectors:7

let check_golden_s1196 () =
  check_oracle_agrees_on "s1196" (Lazy.force s1196) ~seed:3 ~n_vectors:6

let check_golden_s1423 () =
  (* 74 flip-flops: every segment (launch + shifts + capture = 76
     lanes) spans two frames *)
  check_oracle_agrees_on "s1423" (Circuits.by_name "s1423") ~seed:6
    ~n_vectors:5

(* The packed simulator's static figures on s1423, bit for bit: the
   same circuit, vectors, init state and policies as the s1423 golden
   equivalence above. The scan oracle integrates leakage in another
   order and agrees only to float tolerance, so these pins are what
   holds a rewrite of the leakage accounting to bit-identical statics. *)
let s1423_statics_pinned =
  [
    ( "traditional",
      ( 0x1.fb17701921144p+6,
        0x1.082b864aa3f31p+7,
        0x1.fbeec2b60873ap+6 ) );
    ( "enhanced",
      ( 0x1.fd8edcb226037p+6,
        0x1.047c5fa1cedcp+7,
        0x1.fbeec2b60873ap+6 ) );
    ( "input-control",
      ( 0x1.fe43bbb667003p+6,
        0x1.0ae95f5681317p+7,
        0x1.fbeec2b60873ap+6 ) );
    ( "forced-pseudo",
      ( 0x1.ff176c2d9bfe3p+6,
        0x1.0a766ae293e8fp+7,
        0x1.fbeec2b60873ap+6 ) );
  ]

let check_s1423_statics_bit_exact () =
  let c = Circuits.by_name "s1423" in
  let chain = Scan.Scan_chain.natural c in
  let rng = Util.Rng.create 6 in
  let vectors = random_vectors rng c 5 in
  let init_state =
    Array.init (Scan.Scan_chain.length chain) (fun _ -> Util.Rng.bool rng)
  in
  List.iter2
    (fun (tag, policy) (tag', (avg, peak, cap)) ->
      Alcotest.(check string) "policy order" tag' tag;
      let r = Scan.Scan_sim.measure ~init_state c chain policy ~vectors in
      List.iter
        (fun (what, want, got) ->
          if Int64.bits_of_float want <> Int64.bits_of_float got then
            Alcotest.failf "s1423/%s %s: pinned %h, packed %h" tag what want got)
        [
          ("avg static", avg, r.Scan.Scan_sim.avg_static_uw);
          ("peak static", peak, r.Scan.Scan_sim.peak_static_uw);
          ("avg capture static", cap, r.Scan.Scan_sim.avg_capture_static_uw);
        ])
    (policies c rng) s1423_statics_pinned

(* One gate of each of the seven library cells, every pin fed straight
   from a scan cell, so that shifting varies every gate's input state
   and each width's split of varying gates runs. *)
let cells_circuit =
  lazy
    (let module B = Circuit.Builder in
     let b = B.create ~name:"cells" () in
     let pi = B.add_input b "pi" in
     let ff = Array.init 8 (fun i -> B.declare_dff b (Printf.sprintf "ff%d" i)) in
     let gate kind name pins =
       B.add_gate b kind name (List.map (fun i -> ff.(i)) pins)
     in
     let gates =
       [
         gate Gate.Not "inv" [ 0 ];
         gate Gate.Nand "nand2" [ 1; 2 ];
         gate Gate.Nor "nor2" [ 3; 4 ];
         gate Gate.Nand "nand3" [ 5; 6; 7 ];
         gate Gate.Nor "nor3" [ 0; 2; 4 ];
         gate Gate.Nand "nand4" [ 1; 3; 5; 7 ];
         gate Gate.Nor "nor4" [ 6; 4; 2; 0 ];
       ]
     in
     List.iteri
       (fun i g -> ignore (B.add_output b (Printf.sprintf "po%d" i) g))
       gates;
     (* the next state mixes the gates with the primary input *)
     let gs = Array.of_list gates in
     Array.iteri
       (fun i f ->
         let d =
           if i = 7 then B.add_gate b Gate.Nand "d7" [ gs.(6); pi ]
           else gs.(i)
         in
         B.connect_dff b f ~d)
       ff;
     B.build b)

let check_golden_cells () =
  let c = Lazy.force cells_circuit in
  Alcotest.(check bool) "mapped" true (Techmap.Mapper.is_mapped c);
  check_oracle_agrees_on "cells" c ~seed:8 ~n_vectors:9;
  check_oracle_agrees_on "cells" c ~seed:9 ~n_vectors:2

let check_golden_s27 () =
  (* chain shorter than a word: every segment fits one frame *)
  check_oracle_agrees_on "s27" (Lazy.force s27m) ~seed:4 ~n_vectors:20;
  check_oracle_agrees_on "s27" (Lazy.force s27m) ~seed:5 ~n_vectors:1

(* Chains sized around the 63-lane frame. A test segment (silent lane +
   n shifts + capture, n the longest chain) exactly fills one frame at
   n = 61, spills one lane into a count = 1 frame at 62 and one or two
   lanes into a third frame at 125/126; the capture-less shift-out
   segment fills one frame exactly at 62, spills one lane at 63, fills
   two frames exactly at 125 and spills one lane at 126. At 64 and 127
   both segments spill two or three lanes. Under the all-forced policy
   every shift lane applies the same inputs: in a frame of shift lanes
   only or of one lane, every gate is steady, in one input state on all
   of the frame's lanes. The two-chain cases put the same frame edges
   under a partition: the longest chain sets n, and a much shorter
   second chain shifts in leading zeros from its own part of the
   stream. *)
let check_frame_boundaries () =
  let circuit n_ff =
    Circuits.generate
      {
        Circuits.name = Printf.sprintf "frame%d" n_ff;
        n_pi = 5;
        n_po = 3;
        n_ff;
        n_gates = 120;
        seed = n_ff;
      }
  in
  List.iter
    (fun n_ff ->
      check_oracle_agrees_on (Printf.sprintf "frame%d" n_ff) (circuit n_ff)
        ~policies:all_policies ~seed:n_ff ~n_vectors:3)
    [ 61; 62; 63; 64; 125; 126; 127 ];
  List.iter
    (fun longest ->
      let short = 1 + (longest / 20) in
      let c = circuit (longest + short) in
      let dffs = Circuit.dffs c in
      let chain =
        Scan.Scan_chain.of_orders c
          [ Array.sub dffs 0 longest; Array.sub dffs longest short ]
      in
      check_oracle_agrees_on
        (Printf.sprintf "frame%d+%d" longest short)
        c ~chain ~policies:all_policies ~seed:longest ~n_vectors:3)
    [ 62; 63; 64; 126; 127 ]

(* The packed simulator lays the session out as one lane stream: the
   settle lane, then per vector a segment of n + 2 lanes (silent
   pre-application, n shifts, capture; n the longest chain), then the
   n + 1 lanes of the final shift-out, cut into frames of 63 lanes.
   Vector [v]'s capture is stream lane (v + 1)(n + 2), and the session
   ends after lane (V + 1)(n + 2) - 1 for V vectors. The cases below put
   those lanes on the frame edges: with n + 2 dividing 63 (n = 1, 7, 19,
   61) a capture falls on a frame's lane 0 and the session can end
   exactly at a frame end (n = 61: always); n = 60 and n = 2 (vector 46)
   put a capture on lane 62 and the next pre-application on lane 0.
   Each runs under all five policies, with a random [init_state] and
   without one, single-chain and split into two chains of which the
   first is the longest. [session_edges] checks that the cases keep
   covering every edge. *)
let session_cases =
  (* (n, vector counts) *)
  [
    (1, [ 20; 41; 4 ]);
    (7, [ 6; 13; 3 ]);
    (19, [ 2; 5; 4 ]);
    (61, [ 1; 2 ]);
    (60, [ 1; 2 ]);
    (2, [ 47 ]);
  ]

let session_edges () =
  let lanes = Compiled.lanes in
  let cap62 = ref false and cap0 = ref false and pre0 = ref false in
  let end_at_edge = ref false in
  List.iter
    (fun (n, counts) ->
      List.iter
        (fun nv ->
          for v = 0 to nv - 1 do
            let cap = (v + 1) * (n + 2) in
            if cap mod lanes = lanes - 1 then cap62 := true;
            if cap mod lanes = 0 then cap0 := true;
            if (cap + 1) mod lanes = 0 then pre0 := true
          done;
          if (nv + 1) * (n + 2) mod lanes = 0 then end_at_edge := true)
        counts)
    session_cases;
  Alcotest.(check (list bool))
    "capture on lane 62, capture on lane 0, pre-application on lane 0, \
     session ends at a frame end"
    [ true; true; true; true ]
    [ !cap62; !cap0; !pre0; !end_at_edge ]

let check_session_packing () =
  session_edges ();
  List.iter
    (fun (n, counts) ->
      let circuit n_ff =
        Circuits.generate
          {
            Circuits.name = Printf.sprintf "session%d" n_ff;
            n_pi = 4;
            n_po = 2;
            n_ff;
            n_gates = 40 + n_ff;
            seed = 100 + n_ff;
          }
      in
      let single = circuit n in
      (* two chains: the longest ([n] cells) and one of about n / 3 *)
      let short = 1 + (n / 3) in
      let split = circuit (n + short) in
      let dffs = Circuit.dffs split in
      let two =
        Scan.Scan_chain.of_orders split
          [ Array.sub dffs 0 n; Array.sub dffs n short ]
      in
      List.iter
        (fun n_vectors ->
          List.iter
            (fun default_init ->
              let tag = if default_init then "/no-init" else "" in
              check_oracle_agrees_on ~default_init ~policies:all_policies
                (Printf.sprintf "session n=%d v=%d%s" n n_vectors tag)
                single ~seed:(n + n_vectors) ~n_vectors;
              check_oracle_agrees_on ~default_init ~policies:all_policies
                ~chain:two
                (Printf.sprintf "session n=%d+%d v=%d%s" n short n_vectors tag)
                split ~seed:(n + n_vectors) ~n_vectors)
            [ false; true ])
        counts)
    session_cases

let check_empty_vectors () =
  let c = Lazy.force s344 in
  let chain = Scan.Scan_chain.natural c in
  let s = Scan_oracle.measure c chain Scan.Scan_sim.traditional ~vectors:[] in
  let p =
    Scan.Scan_sim.measure c chain Scan.Scan_sim.traditional ~vectors:[]
  in
  check_results "empty" s p;
  Alcotest.(check int) "no cycles beyond floor" 1 p.Scan.Scan_sim.cycles;
  Alcotest.(check int) "no toggles" 0 p.Scan.Scan_sim.total_toggles

let check_validation_parity () =
  let c = Lazy.force s344 in
  let chain = Scan.Scan_chain.natural c in
  let bad_vec = [ Array.make 3 false ] in
  List.iter
    (fun measure ->
      Alcotest.check_raises "vector length"
        (Invalid_argument "Scan_sim: vector length mismatch") (fun () ->
          ignore (measure c chain Scan.Scan_sim.traditional ~vectors:bad_vec));
      Alcotest.check_raises "forced non-dff"
        (Invalid_argument "Scan_sim: forced node is not a flip-flop")
        (fun () ->
          let policy =
            {
              Scan.Scan_sim.pi_during_shift = None;
              forced_pseudo = [ ((Circuit.inputs c).(0), true) ];
              hold_previous_capture = false;
            }
          in
          ignore (measure c chain policy ~vectors:[])))
    [
      Scan_oracle.measure ?init_state:None;
      Scan.Scan_sim.measure ?init_state:None;
    ]

(* ---------- event-driven frames ---------- *)

(* Step [frames] through the packed simulator — each a lane count, a
   first counted lane and a function from (source position, its value
   in the previous frame's final lane) to the source's lane word — and
   check every frame against a lane-by-lane scalar replay: every node's
   word on the frame's lanes, the per-lane and per-node toggle counts,
   the active list (exactly the nodes whose lanes are not all their
   previous final value), and the broadcast word of every other
   non-source node. *)
let check_event_frames name c frames =
  let comp = Compiled.of_circuit c in
  let ps = Sim.Packed_sim.create comp in
  let words = Sim.Packed_sim.words ps in
  let sources = Circuit.sources c in
  let n = Circuit.node_count c in
  let prev = Array.make n false in
  let expected = Array.make n 0 in
  let scalar = Array.make n false in
  List.iteri
    (fun frame (count, from, source_word) ->
      let tag = Printf.sprintf "%s frame %d" name frame in
      Array.iteri
        (fun pos id -> words.(id) <- source_word pos prev.(id))
        sources;
      let lanes = Array.map (fun id -> words.(id)) sources in
      Sim.Packed_sim.step ps ~from ~count;
      let expected_lanes = Array.make Compiled.lanes 0 in
      let active = Array.make n false in
      let start = Array.copy prev in
      for l = 0 to count - 1 do
        Array.iteri
          (fun pos id -> scalar.(id) <- (lanes.(pos) lsr l) land 1 <> 0)
          sources;
        Array.iter
          (fun id ->
            if not (Compiled.is_source comp id) then
              scalar.(id) <- Compiled.eval_bool comp scalar id)
          (Circuit.topo_order c);
        for i = 0 to n - 1 do
          if (words.(i) lsr l) land 1 <> 0 <> scalar.(i) then
            Alcotest.failf "%s: node %d lane %d" tag i l;
          if scalar.(i) <> start.(i) then active.(i) <- true;
          if scalar.(i) <> prev.(i) && l >= from then begin
            expected.(i) <- expected.(i) + 1;
            expected_lanes.(l) <- expected_lanes.(l) + 1
          end
        done;
        Array.blit scalar 0 prev 0 n
      done;
      Alcotest.(check (array int))
        (tag ^ " per-lane toggles")
        expected_lanes
        (Array.copy (Sim.Packed_sim.lane_toggles ps));
      let listed = Array.make n false in
      for i = 0 to Sim.Packed_sim.active_count ps - 1 do
        listed.((Sim.Packed_sim.active ps).(i)) <- true
      done;
      Alcotest.(check (array bool)) (tag ^ " active nodes") active listed;
      for i = 0 to n - 1 do
        if (not active.(i)) && not (Compiled.is_source comp i) then
          Alcotest.(check int)
            (Printf.sprintf "%s: quiet node %d is a broadcast" tag i)
            (if prev.(i) then -1 else 0)
            words.(i)
      done)
    frames;
  Alcotest.(check (array int))
    (name ^ " per-node toggles") expected
    (Array.copy (Sim.Packed_sim.toggles ps));
  Alcotest.(check int)
    (name ^ " total") (Array.fold_left ( + ) 0 expected)
    (Sim.Packed_sim.total_toggles ps)

(* Frames that the scan sessions produce and a few they do not: a frame
   in which nothing changes; one whose sources change only on a late
   lane (a capture lane), then a quiet frame, so the nodes active in one
   frame are quiet in the next; a short frame followed by a full one and
   a full one by a one-lane frame; one source toggling on every lane
   (node-by-node marking) and every source random (the whole-frame
   sweep). s344 has few bitmap words of positions; the generated circuit
   has many, marked and unmarked in one frame. *)
let check_event_driven_frames () =
  let rng = Util.Rng.create 31 in
  let word () =
    Util.Rng.bits rng
    lor (Util.Rng.bits rng lsl 30)
    lor (Util.Rng.bits rng lsl 60)
  in
  let keep _ v = if v then -1 else 0 in
  let random _ _ = word () in
  (* source 0 flips from lane [l] on *)
  let flip_from l pos v =
    let w = keep pos v in
    if pos = 0 then w lxor (-1 lsl l) else w
  in
  let one_toggling pos v = if pos = 1 then word () else keep pos v in
  let frames =
    [
      (63, 1, random);
      (63, 0, keep);
      (63, 0, flip_from 40);
      (63, 0, keep);
      (5, 0, random);
      (63, 0, random);
      (1, 0, flip_from 0);
      (17, 0, keep);
      (63, 0, one_toggling);
      (40, 0, one_toggling);
      (63, 0, random);
      (63, 2, random);
    ]
  in
  check_event_frames "s344" (Lazy.force s344) frames;
  check_event_frames "gen600"
    (Circuits.generate
       {
         Circuits.name = "gen600";
         n_pi = 8;
         n_po = 6;
         n_ff = 30;
         n_gates = 600;
         seed = 11;
       })
    frames

(* Scan sessions whose frames exercise the event-driven edges, each
   against the scan oracle: enhanced scan on 130 cells, where a
   segment spans frames with no change at all; the all-forced policy
   with 60 cells, where the first capture lands on a frame's last lane
   so that frame changes only there; and a proposed structure with a
   single unmuxed cell, whose shifting cone is the only activity
   between captures. *)
let check_event_driven_sessions () =
  let generated n_ff =
    Circuits.generate
      {
        Circuits.name = Printf.sprintf "event%d" n_ff;
        n_pi = 4;
        n_po = 2;
        n_ff;
        n_gates = 40 + n_ff;
        seed = 300 + n_ff;
      }
  in
  check_oracle_agrees_on "quiet frames" (generated 130)
    ~policies:(fun _ _ -> [ ("enhanced", Scan.Scan_sim.enhanced_scan) ])
    ~seed:1 ~n_vectors:3;
  let capture_last c rng =
    [
      ( "all-forced",
        {
          Scan.Scan_sim.pi_during_shift =
            Some (Array.make (Array.length (Circuit.inputs c)) false);
          forced_pseudo =
            Array.to_list (Circuit.dffs c)
            |> List.map (fun id -> (id, Util.Rng.bool rng));
          hold_previous_capture = false;
        } );
    ]
  in
  check_oracle_agrees_on "capture on the last lane" (generated 60)
    ~policies:capture_last ~seed:2 ~n_vectors:2;
  let one_unmuxed c rng =
    let dffs = Circuit.dffs c in
    let free = Util.Rng.int rng (Array.length dffs) in
    [
      ( "one unmuxed cell",
        {
          Scan.Scan_sim.pi_during_shift =
            Some
              (Array.init (Array.length (Circuit.inputs c)) (fun _ ->
                   Util.Rng.bool rng));
          forced_pseudo =
            Array.to_list dffs
            |> List.filteri (fun i _ -> i <> free)
            |> List.map (fun id -> (id, Util.Rng.bool rng));
          hold_previous_capture = false;
        } );
    ]
  in
  check_oracle_agrees_on "s344" (Lazy.force s344) ~policies:one_unmuxed
    ~seed:3 ~n_vectors:9;
  check_oracle_agrees_on "s1423" (Circuits.by_name "s1423")
    ~policies:one_unmuxed ~seed:4 ~n_vectors:3

(* Property: on random generated circuits (mapped by construction) the
   packed simulator agrees with the oracle for random vector sets,
   random policies and random chain partitions. *)
let prop_oracle_agrees =
  QCheck.Test.make ~name:"packed engine equals scalar engine" ~count:12
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 0 10000) (int_range 1 5) (int_range 10 60)))
    (fun (seed, n_vectors, n_gates) ->
      let profile =
        {
          Circuits.name = Printf.sprintf "prop%d" seed;
          n_pi = 3 + (seed mod 4);
          n_po = 2;
          n_ff = 2 + (seed mod 5);
          n_gates;
          seed;
        }
      in
      let c = Circuits.generate profile in
      let chain = random_partition (Util.Rng.create (seed + 1)) c in
      check_oracle_agrees_on profile.Circuits.name c ~chain
        ~policies:all_policies ~seed ~n_vectors;
      true)

let suite =
  [
    Alcotest.test_case "compiled mirrors circuit" `Quick
      check_compiled_mirrors_circuit;
    Alcotest.test_case "eval_bool equals gate eval" `Quick
      check_eval_bool_matches_gate_eval;
    Alcotest.test_case "eval_lanes equals per-lane eval" `Quick
      check_eval_lanes_matches_per_lane;
    Alcotest.test_case "packed toggle counting" `Quick
      check_packed_sim_toggle_counting;
    Alcotest.test_case "golden equivalence s344" `Quick check_golden_s344;
    Alcotest.test_case "golden equivalence s1196" `Quick check_golden_s1196;
    Alcotest.test_case "golden equivalence s27" `Quick check_golden_s27;
    Alcotest.test_case "golden equivalence s1423" `Quick check_golden_s1423;
    Alcotest.test_case "s1423 statics bit-exact" `Quick
      check_s1423_statics_bit_exact;
    Alcotest.test_case "golden equivalence, one gate per cell" `Quick
      check_golden_cells;
    Alcotest.test_case "frame-boundary equivalence" `Quick
      check_frame_boundaries;
    Alcotest.test_case "empty vector list" `Quick check_empty_vectors;
    Alcotest.test_case "validation parity" `Quick check_validation_parity;
    Alcotest.test_case "lane counter counts past 127" `Quick
      check_lane_counter_past_127;
    Alcotest.test_case "session packing at frame edges" `Quick
      check_session_packing;
    Alcotest.test_case "event-driven frames" `Quick check_event_driven_frames;
    Alcotest.test_case "event-driven sessions" `Quick
      check_event_driven_sessions;
    QCheck_alcotest.to_alcotest prop_lane_counter;
    QCheck_alcotest.to_alcotest prop_eval_lanes_random_circuits;
    QCheck_alcotest.to_alcotest prop_oracle_agrees;
  ]
