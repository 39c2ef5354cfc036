(* C-algorithm baseline, IVC don't-care fill, gate input reordering,
   and the end-to-end flow / Table I reporting. *)

open Netlist

let mapped name = Techmap.Mapper.map (Circuits.by_name name)

(* ---------- C-algorithm ---------- *)

let check_c_algorithm_fully_specified () =
  let c = mapped "s344" in
  let r = Scanpower.C_algorithm.find c in
  Alcotest.(check int) "one bit per PI"
    (Array.length (Circuit.inputs c))
    (Array.length r.Scanpower.C_algorithm.pi_pattern);
  Alcotest.(check bool) "blocks gates" true (r.Scanpower.C_algorithm.blocked_gates > 0)

let check_c_algorithm_deterministic () =
  let c = mapped "s344" in
  let r1 = Scanpower.C_algorithm.find c and r2 = Scanpower.C_algorithm.find c in
  Alcotest.(check (array bool)) "same pattern" r1.Scanpower.C_algorithm.pi_pattern
    r2.Scanpower.C_algorithm.pi_pattern

let check_c_algorithm_reduces_shift_power () =
  let c = mapped "s382" in
  let chain = Scan.Scan_chain.natural c in
  let vectors = Atpg.Pattern_gen.random_vectors ~seed:12 ~count:30 c in
  let trad = Scan.Scan_sim.measure c chain Scan.Scan_sim.traditional ~vectors in
  let r = Scanpower.C_algorithm.find c in
  let policy =
    { Scan.Scan_sim.pi_during_shift = Some r.Scanpower.C_algorithm.pi_pattern;
      forced_pseudo = []; hold_previous_capture = false }
  in
  let ic = Scan.Scan_sim.measure c chain policy ~vectors in
  Alcotest.(check bool)
    (Printf.sprintf "IC %.3e <= trad %.3e"
       ic.Scan.Scan_sim.dynamic.Power.Switching.dynamic_per_hz_uw
       trad.Scan.Scan_sim.dynamic.Power.Switching.dynamic_per_hz_uw)
    true
    (ic.Scan.Scan_sim.dynamic.Power.Switching.dynamic_per_hz_uw
    <= trad.Scan.Scan_sim.dynamic.Power.Switching.dynamic_per_hz_uw)

(* ---------- IVC ---------- *)

let check_ivc_fills_every_controlled_input () =
  let c = mapped "s344" in
  let mux = Scanpower.Mux_insertion.select c in
  let cp =
    Scanpower.Controlled_pattern.find
      ~direction:(Scanpower.Justify.Leakage_directed (Power.Observability.compute c))
      c ~muxable:mux.Scanpower.Mux_insertion.muxable
  in
  let filled =
    Scanpower.Ivc.fill ~seed:3 c ~values:cp.Scanpower.Controlled_pattern.values
      ~controlled:cp.Scanpower.Controlled_pattern.controlled
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) "definite" false
        (Logic.equal filled.Scanpower.Ivc.values.(id) Logic.X))
    cp.Scanpower.Controlled_pattern.controlled;
  (* pre-existing cares survive *)
  List.iter
    (fun (id, v) ->
      if not (Logic.equal v Logic.X) then
        Alcotest.(check bool) "care preserved" true
          (Logic.equal filled.Scanpower.Ivc.values.(id) v))
    cp.Scanpower.Controlled_pattern.assignment

let check_ivc_picks_low_leakage () =
  (* with a single free input on an inverter, IVC must pick the state
     with the lower table leakage *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.add_input b "a" in
  let i1 = Circuit.Builder.add_gate b Gate.Not "i1" [ a ] in
  let _ = Circuit.Builder.add_output b "po" i1 in
  let c = Circuit.Builder.build b in
  let values = Ternary_sim.make_values c Logic.X in
  Ternary_sim.propagate c values;
  let filled = Scanpower.Ivc.fill ~candidates:8 ~seed:1 c ~values ~controlled:[ a ] in
  let t0 = Techlib.Leakage_table.leakage_na Techlib.Cell.Inv ~state:0 in
  let t1 = Techlib.Leakage_table.leakage_na Techlib.Cell.Inv ~state:1 in
  let expected = if t0 < t1 then Logic.Zero else Logic.One in
  Alcotest.(check bool) "picked the cheaper state" true
    (Logic.equal filled.Scanpower.Ivc.values.(Circuit.find c "a") expected)

let check_ivc_deterministic () =
  let c = mapped "s344" in
  let values = Ternary_sim.make_values c Logic.X in
  Ternary_sim.propagate c values;
  let controlled = Array.to_list (Circuit.inputs c) in
  let f1 = Scanpower.Ivc.fill ~seed:9 c ~values ~controlled in
  let f2 = Scanpower.Ivc.fill ~seed:9 c ~values ~controlled in
  Alcotest.(check bool) "same values" true
    (f1.Scanpower.Ivc.values = f2.Scanpower.Ivc.values);
  Alcotest.check (Alcotest.float 1e-12) "same score"
    f1.Scanpower.Ivc.expected_leakage_uw f2.Scanpower.Ivc.expected_leakage_uw

(* The winner's score, recomputed one sample at a time: the sample
   seeds IVC draws from, each free source drawn in source order, one
   [eval_bool] sweep and a node-id-ordered leakage sum per sample, and
   the mean over samples. IVC scores 63 samples per word, so 70 samples
   take two words and must give the same float. *)
let check_ivc_score_matches_per_sample () =
  let c = mapped "s344" in
  let values = Ternary_sim.make_values c Logic.X in
  Ternary_sim.propagate c values;
  let controlled =
    Array.to_list (Circuit.inputs c) |> List.filteri (fun i _ -> i mod 2 = 0)
  in
  let seed = 5 and inner_samples = 70 in
  let filled =
    Scanpower.Ivc.fill ~candidates:4 ~inner_samples ~seed c ~values ~controlled
  in
  let won = filled.Scanpower.Ivc.values in
  let comp = Compiled.of_circuit c in
  let free =
    List.filter
      (fun id -> Logic.equal won.(id) Logic.X)
      (Array.to_list (Circuit.sources c))
  in
  Alcotest.(check bool) "some sources stay free" true (free <> []);
  let bools = Array.map (Logic.equal Logic.One) won in
  let total = ref 0.0 in
  for i = 0 to inner_samples - 1 do
    let rng = Util.Rng.create ((seed * 7919) + i) in
    List.iter (fun id -> bools.(id) <- Util.Rng.bool rng) free;
    Array.iter
      (fun id -> bools.(id) <- Compiled.eval_bool comp bools id)
      (Compiled.eval_order comp);
    let na = ref 0.0 in
    for id = 0 to Circuit.node_count c - 1 do
      na := !na +. Power.Leakage.gate_leakage_na c bools id
    done;
    total := !total +. (!na *. Techlib.Leakage_table.vdd /. 1000.0)
  done;
  let want = !total /. float_of_int inner_samples in
  let got = filled.Scanpower.Ivc.expected_leakage_uw in
  if Int64.bits_of_float want <> Int64.bits_of_float got then
    Alcotest.failf "IVC score %h, per-sample %h" got want

(* ---------- input reordering ---------- *)

let check_expected_cell_leakage () =
  let cell = Techlib.Cell.Nand 2 in
  let t s = Techlib.Leakage_table.leakage_na cell ~state:(Techlib.Leakage_table.state_of_string s) in
  (* definite values: exact table lookup *)
  Alcotest.check (Alcotest.float 1e-9) "definite"
    (t "10")
    (Scanpower.Input_reorder.expected_cell_leakage_na cell [| Logic.One; Logic.Zero |]);
  (* one X: average of the two possibilities *)
  Alcotest.check (Alcotest.float 1e-9) "half-half"
    ((t "10" +. t "11") /. 2.0)
    (Scanpower.Input_reorder.expected_cell_leakage_na cell [| Logic.One; Logic.X |])

let reorder_gadget () =
  (* NAND2 with pins (1, 0): the "10" state at 264 nA; swapping pins
     gives "01" at 73 nA *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.add_input b "a" in
  let b2 = Circuit.Builder.add_input b "b" in
  let g = Circuit.Builder.add_gate b Gate.Nand "g" [ a; b2 ] in
  let _ = Circuit.Builder.add_output b "po" g in
  Circuit.Builder.build b

let check_reorder_swaps_hot_nand () =
  let c = reorder_gadget () in
  let values = Ternary_sim.make_values c Logic.X in
  values.(Circuit.find c "a") <- Logic.One;
  values.(Circuit.find c "b") <- Logic.Zero;
  Ternary_sim.propagate c values;
  let before = (Circuit.node c (Circuit.find c "g")).Circuit.fanins in
  let before = Array.copy before in
  let r = Scanpower.Input_reorder.optimize c ~values in
  Alcotest.(check int) "one gate reordered" 1 r.Scanpower.Input_reorder.gates_reordered;
  Alcotest.check (Alcotest.float 1e-9) "gain = 264 - 73" (264.0 -. 73.0)
    r.Scanpower.Input_reorder.expected_gain_na;
  let after = (Circuit.node c (Circuit.find c "g")).Circuit.fanins in
  Alcotest.(check bool) "pins swapped" true
    (after.(0) = before.(1) && after.(1) = before.(0))

let check_reorder_leaves_optimal_alone () =
  let c = reorder_gadget () in
  let values = Ternary_sim.make_values c Logic.X in
  values.(Circuit.find c "a") <- Logic.Zero;
  values.(Circuit.find c "b") <- Logic.One;
  (* already the cheap "01" *)
  Ternary_sim.propagate c values;
  let r = Scanpower.Input_reorder.optimize c ~values in
  Alcotest.(check int) "nothing to do" 0 r.Scanpower.Input_reorder.gates_reordered

let check_reorder_preserves_function () =
  let c = mapped "s382" in
  let reference = Circuit.copy c in
  let values = Ternary_sim.make_values c Logic.X in
  let rng = Util.Rng.create 21 in
  Array.iter
    (fun id -> values.(id) <- Logic.of_bool (Util.Rng.bool rng))
    (Circuit.sources c);
  Ternary_sim.propagate c values;
  let _ = Scanpower.Input_reorder.optimize c ~values in
  (* symmetric-pin permutation cannot change any function *)
  let n_pi = Array.length (Circuit.inputs c) in
  let sim = Seq_sim.create c and sim' = Seq_sim.create reference in
  for _ = 1 to 40 do
    let v = Util.Rng.bool_array rng n_pi in
    Alcotest.(check (array bool)) "same outputs" (Seq_sim.step sim' v)
      (Seq_sim.step sim v)
  done

let check_reorder_never_increases_expected_leakage () =
  let c = mapped "s344" in
  let values = Ternary_sim.make_values c Logic.X in
  let rng = Util.Rng.create 5 in
  Array.iter
    (fun id -> if Util.Rng.bool rng then values.(id) <- Logic.of_bool (Util.Rng.bool rng))
    (Circuit.sources c);
  Ternary_sim.propagate c values;
  let total_expected cc =
    let acc = ref 0.0 in
    Array.iter
      (fun nd ->
        if Gate.is_logic nd.Circuit.kind then
          match Techlib.Cell.of_gate nd.Circuit.kind ~fanin:(Array.length nd.Circuit.fanins) with
          | Some cell ->
            acc :=
              !acc
              +. Scanpower.Input_reorder.expected_cell_leakage_na cell
                   (Array.map (fun f -> values.(f)) nd.Circuit.fanins)
          | None -> ())
      (Circuit.nodes cc);
    !acc
  in
  let before = total_expected c in
  let r = Scanpower.Input_reorder.optimize c ~values in
  let after = total_expected c in
  Alcotest.(check bool) "non-increasing" true (after <= before +. 1e-6);
  Alcotest.check (Alcotest.float 1e-6) "gain accounted" (before -. after)
    r.Scanpower.Input_reorder.expected_gain_na

(* ---------- flow & report ---------- *)

let flow_cmp =
  lazy (Scanpower.Flow.run_benchmark (Circuits.s27 ()))

let check_flow_structure () =
  let cmp = Lazy.force flow_cmp in
  Alcotest.(check string) "name" "s27" cmp.Scanpower.Flow.name;
  Alcotest.(check int) "dffs" 3 cmp.Scanpower.Flow.n_dffs;
  Alcotest.(check bool) "vectors" true (cmp.Scanpower.Flow.n_vectors > 0);
  Alcotest.(check bool) "muxable in range" true
    (cmp.Scanpower.Flow.n_muxable >= 0 && cmp.Scanpower.Flow.n_muxable <= 3)

let check_flow_power_sane () =
  let cmp = Lazy.force flow_cmp in
  let all =
    [ cmp.Scanpower.Flow.traditional; cmp.Scanpower.Flow.input_control;
      cmp.Scanpower.Flow.proposed ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "dynamic positive" true (r.Scanpower.Flow.dynamic_per_hz_uw > 0.0);
      Alcotest.(check bool) "static positive" true (r.Scanpower.Flow.static_uw > 0.0);
      Alcotest.(check bool) "peak >= avg" true
        (r.Scanpower.Flow.peak_static_uw >= r.Scanpower.Flow.static_uw -. 1e-9))
    all

let check_flow_proposed_wins_static () =
  let cmp = Lazy.force flow_cmp in
  Alcotest.(check bool) "proposed static below traditional" true
    (cmp.Scanpower.Flow.proposed.Scanpower.Flow.static_uw
    < cmp.Scanpower.Flow.traditional.Scanpower.Flow.static_uw)

let check_flow_deterministic () =
  let c1 = Scanpower.Flow.run_benchmark (Circuits.s27 ()) in
  let c2 = Scanpower.Flow.run_benchmark (Circuits.s27 ()) in
  Alcotest.(check bool) "identical comparisons" true (c1 = c2)

let check_improvement_formula () =
  Alcotest.check (Alcotest.float 1e-9) "50%" 50.0 (Scanpower.Flow.improvement 2.0 1.0);
  Alcotest.check (Alcotest.float 1e-9) "negative" (-50.0)
    (Scanpower.Flow.improvement 2.0 3.0);
  Alcotest.(check bool) "zero base, nonzero x is undefined" true
    (Float.is_nan (Scanpower.Flow.improvement 0.0 1.0));
  Alcotest.check (Alcotest.float 1e-9) "zero base, zero x is no change" 0.0
    (Scanpower.Flow.improvement 0.0 0.0)

let check_report_row () =
  let cmp = Lazy.force flow_cmp in
  let row = Scanpower.Report.of_comparison cmp in
  Alcotest.(check string) "name" "s27" row.Scanpower.Report.name;
  Alcotest.check (Alcotest.float 1e-12) "traditional dynamic copied"
    cmp.Scanpower.Flow.traditional.Scanpower.Flow.dynamic_per_hz_uw
    row.Scanpower.Report.trad_dyn

let check_paper_table () =
  Alcotest.(check int) "twelve rows" 12 (List.length Scanpower.Report.paper_table1);
  (match Scanpower.Report.paper_row "s344" with
  | None -> Alcotest.fail "s344 in Table I"
  | Some r ->
    Alcotest.check (Alcotest.float 1e-12) "s344 trad static" 27.99
      r.Scanpower.Report.trad_static;
    Alcotest.check (Alcotest.float 0.3) "s344 dyn improvement ~44.8%" 44.82
      (Scanpower.Report.dyn_improvement_vs_traditional r));
  Alcotest.(check bool) "unknown row" true (Scanpower.Report.paper_row "s00" = None)

let check_paper_improvements_recomputed () =
  (* our improvement columns recompute the paper's published percentage
     columns from its absolute columns (within rounding) *)
  List.iter
    (fun (name, dyn, stat) ->
      match Scanpower.Report.paper_row name with
      | None -> Alcotest.fail name
      | Some r ->
        Alcotest.check (Alcotest.float 0.6)
          (name ^ " dyn")
          dyn
          (Scanpower.Report.dyn_improvement_vs_traditional r);
        Alcotest.check (Alcotest.float 0.6)
          (name ^ " static")
          stat
          (Scanpower.Report.static_improvement_vs_traditional r))
    [ ("s344", 44.82, 14.65); ("s444", 69.44, 17.00); ("s1238", 18.64, 20.70) ]

let suite =
  [
    Alcotest.test_case "c-algorithm fully specified" `Quick
      check_c_algorithm_fully_specified;
    Alcotest.test_case "c-algorithm deterministic" `Quick check_c_algorithm_deterministic;
    Alcotest.test_case "c-algorithm reduces shift power" `Quick
      check_c_algorithm_reduces_shift_power;
    Alcotest.test_case "ivc fills controlled inputs" `Quick
      check_ivc_fills_every_controlled_input;
    Alcotest.test_case "ivc picks low leakage" `Quick check_ivc_picks_low_leakage;
    Alcotest.test_case "ivc deterministic" `Quick check_ivc_deterministic;
    Alcotest.test_case "expected cell leakage" `Quick check_expected_cell_leakage;
    Alcotest.test_case "ivc score equals per-sample sum" `Quick
      check_ivc_score_matches_per_sample;
    Alcotest.test_case "reorder swaps hot nand" `Quick check_reorder_swaps_hot_nand;
    Alcotest.test_case "reorder leaves optimal alone" `Quick
      check_reorder_leaves_optimal_alone;
    Alcotest.test_case "reorder preserves function" `Quick check_reorder_preserves_function;
    Alcotest.test_case "reorder never increases leakage" `Quick
      check_reorder_never_increases_expected_leakage;
    Alcotest.test_case "flow structure" `Quick check_flow_structure;
    Alcotest.test_case "flow power sane" `Quick check_flow_power_sane;
    Alcotest.test_case "flow proposed wins static" `Quick check_flow_proposed_wins_static;
    Alcotest.test_case "flow deterministic" `Slow check_flow_deterministic;
    Alcotest.test_case "improvement formula" `Quick check_improvement_formula;
    Alcotest.test_case "report row" `Quick check_report_row;
    Alcotest.test_case "paper table" `Quick check_paper_table;
    Alcotest.test_case "paper improvements recomputed" `Quick
      check_paper_improvements_recomputed;
  ]
