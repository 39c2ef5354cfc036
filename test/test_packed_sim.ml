(* Compiled circuit form and 64-lane packed scan simulation: structural
   invariants of the CSR arrays, kernel-level cross-validation against
   the scalar evaluators, and golden engine equivalence — the packed
   scan engine must reproduce the event-driven reference exactly
   (toggles, per-cycle series, dynamic power, responses) with static
   power agreeing to float accumulation order. *)

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

let check_eval_word_matches_per_lane () =
  let c = Lazy.force s344 in
  let comp = Compiled.of_circuit c in
  let n = Circuit.node_count c in
  let rng = Util.Rng.create 11 in
  let words = Array.make n 0L in
  let lane_values = Array.make n false in
  for _ = 1 to 5 do
    (* random source words, full 64-lane sweep *)
    Array.iter
      (fun id ->
        let w = ref 0L in
        for b = 0 to 63 do
          if Util.Rng.bool rng then w := Int64.logor !w (Int64.shift_left 1L b)
        done;
        words.(id) <- !w)
      (Circuit.sources c);
    Compiled.eval_words comp words;
    for lane = 0 to 63 do
      for i = 0 to n - 1 do
        lane_values.(i) <-
          Int64.logand (Int64.shift_right_logical words.(i) lane) 1L <> 0L
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
  let first = ref true in
  for _frame = 1 to 4 do
    let count = 1 + Util.Rng.int rng 64 in
    let lanes = Array.init count (fun _ -> Array.make (Array.length sources) false) in
    Array.iter (fun lane -> Array.iteri (fun i _ -> lane.(i) <- Util.Rng.bool rng) lane) lanes;
    Array.iteri
      (fun pos id ->
        let w = ref 0L in
        for l = 0 to count - 1 do
          if lanes.(l).(pos) then w := Int64.logor !w (Int64.shift_left 1L l)
        done;
        words.(id) <- !w)
      sources;
    Sim.Packed_sim.step ps ~count ~record:true;
    for l = 0 to count - 1 do
      Array.iteri (fun pos id -> scalar.(id) <- lanes.(l).(pos)) sources;
      Array.iter
        (fun id ->
          if not (Gate.is_source (Circuit.node c id).Circuit.kind) then
            scalar.(id) <- Compiled.eval_bool comp scalar id)
        (Circuit.topo_order c);
      for i = 0 to n - 1 do
        if (not !first) && scalar.(i) <> prev.(i) then
          expected.(i) <- expected.(i) + 1
      done;
      (* the packed sim's first-ever lane diffs against last = 0 *)
      if !first then
        for i = 0 to n - 1 do
          if scalar.(i) then expected.(i) <- expected.(i) + 1
        done;
      first := false;
      Array.blit scalar 0 prev 0 n
    done
  done;
  Alcotest.(check (array int))
    "per-node toggles" expected
    (Array.copy (Sim.Packed_sim.toggles ps));
  Alcotest.(check int)
    "total" (Array.fold_left ( + ) 0 expected)
    (Sim.Packed_sim.total_toggles ps)

(* ---------- engine equivalence ---------- *)

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
        Alcotest.failf "%s %s: scalar %.17g vs packed %.17g" tag what a b)
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

(* Scalar ≡ packed on [n_vectors] vectors drawn from [seed] (the same
   vectors as [Atpg.Pattern_gen.random_vectors ~seed ~count:n_vectors]).
   [init_state] defaults to a seeded random chain state and [policies]
   to the four above. *)
let check_engines_agree_on ?init_state ?(policies = policies) name circuit
    ~seed ~n_vectors =
  let c = circuit in
  let chain = Scan.Scan_chain.natural c in
  let rng = Util.Rng.create seed in
  let vectors = random_vectors rng c n_vectors in
  let init_state =
    match init_state with
    | Some st -> st
    | None ->
      Array.init (Scan.Scan_chain.length chain) (fun _ -> Util.Rng.bool rng)
  in
  List.iter
    (fun (tag, policy) ->
      let tag = Printf.sprintf "%s/%s/seed%d" name tag seed in
      let s =
        Scan.Scan_sim.measure ~engine:Scan.Scan_sim.Scalar ~init_state c chain
          policy ~vectors
      in
      let p =
        Scan.Scan_sim.measure ~engine:Scan.Scan_sim.Packed ~init_state c chain
          policy ~vectors
      in
      check_results tag s p;
      let rs =
        Scan.Scan_sim.responses ~engine:Scan.Scan_sim.Scalar ~init_state c
          chain policy ~vectors
      in
      let rp =
        Scan.Scan_sim.responses ~engine:Scan.Scan_sim.Packed ~init_state c
          chain policy ~vectors
      in
      Alcotest.(check (list (array bool))) (tag ^ " responses") rs rp)
    (policies c rng)

let check_golden_s344 () =
  check_engines_agree_on "s344" (Lazy.force s344) ~seed:1 ~n_vectors:12;
  check_engines_agree_on "s344" (Lazy.force s344) ~seed:2 ~n_vectors:7

let check_golden_s1196 () =
  check_engines_agree_on "s1196" (Lazy.force s1196) ~seed:3 ~n_vectors:6

let check_golden_s1423 () =
  (* 74 flip-flops: every segment (launch + shifts + capture = 76
     lanes) spans two frames *)
  check_engines_agree_on "s1423" (Circuits.by_name "s1423") ~seed:6
    ~n_vectors:5

let check_golden_s27 () =
  (* chain shorter than a word: every segment fits one frame *)
  check_engines_agree_on "s27" (Lazy.force s27m) ~seed:4 ~n_vectors:20;
  check_engines_agree_on "s27" (Lazy.force s27m) ~seed:5 ~n_vectors:1

let check_empty_vectors () =
  let c = Lazy.force s344 in
  let chain = Scan.Scan_chain.natural c in
  let s =
    Scan.Scan_sim.measure ~engine:Scan.Scan_sim.Scalar c chain
      Scan.Scan_sim.traditional ~vectors:[]
  in
  let p =
    Scan.Scan_sim.measure ~engine:Scan.Scan_sim.Packed c chain
      Scan.Scan_sim.traditional ~vectors:[]
  in
  check_results "empty" s p;
  Alcotest.(check int) "no cycles beyond floor" 1 p.Scan.Scan_sim.cycles;
  Alcotest.(check int) "no toggles" 0 p.Scan.Scan_sim.total_toggles

let check_validation_parity () =
  let c = Lazy.force s344 in
  let chain = Scan.Scan_chain.natural c in
  let bad_vec = [ Array.make 3 false ] in
  List.iter
    (fun engine ->
      Alcotest.check_raises "vector length"
        (Invalid_argument "Scan_sim: vector length mismatch") (fun () ->
          ignore
            (Scan.Scan_sim.measure ~engine c chain Scan.Scan_sim.traditional
               ~vectors:bad_vec));
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
          ignore (Scan.Scan_sim.measure ~engine c chain policy ~vectors:[])))
    [ Scan.Scan_sim.Scalar; Scan.Scan_sim.Packed ]

(* Property: on random generated circuits (mapped by construction) the
   two engines agree for random vector sets and random policies. *)
let prop_engines_agree =
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
      check_engines_agree_on profile.Circuits.name c ~seed ~n_vectors;
      true)

let suite =
  [
    Alcotest.test_case "compiled mirrors circuit" `Quick
      check_compiled_mirrors_circuit;
    Alcotest.test_case "eval_bool equals gate eval" `Quick
      check_eval_bool_matches_gate_eval;
    Alcotest.test_case "eval_word equals per-lane eval" `Quick
      check_eval_word_matches_per_lane;
    Alcotest.test_case "packed toggle counting" `Quick
      check_packed_sim_toggle_counting;
    Alcotest.test_case "golden equivalence s344" `Quick check_golden_s344;
    Alcotest.test_case "golden equivalence s1196" `Quick check_golden_s1196;
    Alcotest.test_case "golden equivalence s27" `Quick check_golden_s27;
    Alcotest.test_case "golden equivalence s1423" `Quick check_golden_s1423;
    Alcotest.test_case "empty vector list" `Quick check_empty_vectors;
    Alcotest.test_case "validation parity" `Quick check_validation_parity;
    QCheck_alcotest.to_alcotest prop_engines_agree;
  ]
