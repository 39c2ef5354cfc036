(* Dynamic (Eq. 1) and static (Eq. 5) power models. *)

open Netlist

let mapped_s27 = lazy (Techmap.Mapper.map (Circuits.s27 ()))

let bool_values c f = Array.init (Circuit.node_count c) f

let settled c ~sources =
  let values = Array.make (Circuit.node_count c) false in
  Array.iter (fun id -> values.(id) <- sources id) (Circuit.sources c);
  Array.iter
    (fun id ->
      let nd = Circuit.node c id in
      if not (Gate.is_source nd.kind) then
        values.(id) <-
          Gate.eval_bool nd.kind (Array.map (fun f -> values.(f)) nd.fanins))
    (Circuit.topo_order c);
  values

let check_switching_zero_for_no_toggles () =
  let c = Lazy.force mapped_s27 in
  let toggles = Array.make (Circuit.node_count c) 0 in
  let r = Power.Switching.of_toggles c ~toggles ~cycles:10 in
  Alcotest.check (Alcotest.float 1e-12) "zero" 0.0 r.Power.Switching.dynamic_per_hz_uw;
  Alcotest.(check int) "no toggles" 0 r.Power.Switching.total_toggles

let check_switching_scales_linearly () =
  let c = Lazy.force mapped_s27 in
  let toggles = Array.make (Circuit.node_count c) 2 in
  let base = Power.Switching.of_toggles c ~toggles ~cycles:10 in
  let double = Array.make (Circuit.node_count c) 4 in
  let twice = Power.Switching.of_toggles c ~toggles:double ~cycles:10 in
  Alcotest.check (Alcotest.float 1e-12) "linear in activity"
    (2.0 *. base.Power.Switching.dynamic_per_hz_uw)
    twice.Power.Switching.dynamic_per_hz_uw;
  (* doubling the observation window halves the per-cycle figure *)
  let longer = Power.Switching.of_toggles c ~toggles ~cycles:20 in
  Alcotest.check (Alcotest.float 1e-12) "inverse in cycles"
    (base.Power.Switching.dynamic_per_hz_uw /. 2.0)
    longer.Power.Switching.dynamic_per_hz_uw

let check_switching_validation () =
  let c = Lazy.force mapped_s27 in
  Alcotest.check_raises "cycles" (Invalid_argument "Switching.of_toggles: cycles <= 0")
    (fun () ->
      ignore
        (Power.Switching.of_toggles c
           ~toggles:(Array.make (Circuit.node_count c) 0)
           ~cycles:0));
  Alcotest.check_raises "length"
    (Invalid_argument "Switching.of_toggles: toggle array length mismatch")
    (fun () -> ignore (Power.Switching.of_toggles c ~toggles:[| 1 |] ~cycles:1))

let check_output_markers_cost_nothing () =
  let c = Lazy.force mapped_s27 in
  Array.iter
    (fun id ->
      Alcotest.check (Alcotest.float 1e-12) "marker cap" 0.0
        (Power.Switching.switched_cap c id))
    (Circuit.outputs c)

let check_leakage_positive_and_state_dependent () =
  let c = Lazy.force mapped_s27 in
  let v0 = settled c ~sources:(fun _ -> false) in
  let v1 = settled c ~sources:(fun _ -> true) in
  let l0 = Power.Leakage.total_leakage_uw c v0 in
  let l1 = Power.Leakage.total_leakage_uw c v1 in
  Alcotest.(check bool) "positive" true (l0 > 0.0 && l1 > 0.0);
  Alcotest.(check bool) "state dependent" true (l0 <> l1)

let check_leakage_magnitude () =
  (* ~13 mapped gates at 73..408 nA each, 0.9 V: must land between
     0.5 and 10 uW -- the same regime as the paper's numbers scale to *)
  let c = Lazy.force mapped_s27 in
  let v = settled c ~sources:(fun _ -> false) in
  let l = Power.Leakage.total_leakage_uw c v in
  Alcotest.(check bool) (Printf.sprintf "magnitude %.3f uW" l) true
    (l > 0.5 && l < 10.0)

let check_gate_state_packing () =
  let c = Lazy.force mapped_s27 in
  let v = bool_values c (fun _ -> true) in
  Array.iter
    (fun nd ->
      if Gate.is_logic nd.Circuit.kind then begin
        let st = Power.Leakage.gate_state c v nd.Circuit.id in
        Alcotest.(check int) "all ones"
          ((1 lsl Array.length nd.Circuit.fanins) - 1)
          st
      end)
    (Circuit.nodes c)

let check_expected_leakage_interpolates () =
  (* with all probabilities 0 or 1, the expectation equals the
     deterministic leakage *)
  let c = Lazy.force mapped_s27 in
  let v = settled c ~sources:(fun id -> id mod 2 = 0) in
  let p_one =
    Array.init (Circuit.node_count c) (fun id -> if v.(id) then 1.0 else 0.0)
  in
  let exact = Power.Leakage.total_leakage_uw c v in
  Alcotest.check (Alcotest.float 1e-6) "degenerate expectation" exact
    (Power.Leakage.expected_total_leakage_uw c ~p_one);
  (* uniform probabilities land strictly between min and max over all
     source assignments of this tiny circuit's extremes *)
  let p_half = Array.make (Circuit.node_count c) 0.5 in
  let e = Power.Leakage.expected_total_leakage_uw c ~p_one:p_half in
  Alcotest.(check bool) "positive expectation" true (e > 0.0)

let prop_total_is_sum_of_gates =
  QCheck.Test.make ~name:"total leakage = sum over gates" ~count:20
    (QCheck.make QCheck.Gen.(int_range 0 1000))
    (fun seed ->
      let c = Lazy.force mapped_s27 in
      let rng = Util.Rng.create seed in
      let v = settled c ~sources:(fun _ -> Util.Rng.bool rng) in
      let sum = ref 0.0 in
      Array.iter
        (fun nd ->
          if Gate.is_logic nd.Circuit.kind then
            sum := !sum +. Power.Leakage.gate_leakage_na c v nd.Circuit.id)
        (Circuit.nodes c);
      let total = Power.Leakage.total_leakage_uw c v in
      Float.abs ((!sum *. Techlib.Leakage_table.vdd /. 1000.0) -. total) < 1e-9)

(* [tables] hands out the library's rows: every gate of a cell gets the
   cell's one physical row (the packed scan simulator groups gates by
   it), with [gate_leakage_na]'s values. *)
let check_tables_share_cell_rows () =
  let c = Lazy.force mapped_s27 in
  let tables = Power.Leakage.tables c in
  let values = Array.make (Circuit.node_count c) false in
  Array.iteri
    (fun id row ->
      match Techmap.Mapper.cell_of_node c id with
      | None -> Alcotest.(check int) "no row" 0 (Array.length row)
      | Some cell ->
        Alcotest.(check bool)
          "the cell's shared row" true
          (row == Techlib.Leakage_table.row cell);
        Array.iteri
          (fun s v ->
            let nd = Circuit.node c id in
            Array.iteri
              (fun i f -> values.(f) <- s land (1 lsl i) <> 0)
              nd.Circuit.fanins;
            Alcotest.(check (float 0.0))
              "row value" v
              (Power.Leakage.gate_leakage_na c values id))
          row)
    tables

let suite =
  [
    Alcotest.test_case "no toggles, no dynamic power" `Quick
      check_switching_zero_for_no_toggles;
    Alcotest.test_case "switching scales linearly" `Quick
      check_switching_scales_linearly;
    Alcotest.test_case "switching validation" `Quick check_switching_validation;
    Alcotest.test_case "output markers cost nothing" `Quick
      check_output_markers_cost_nothing;
    Alcotest.test_case "leakage positive and state dependent" `Quick
      check_leakage_positive_and_state_dependent;
    Alcotest.test_case "leakage magnitude" `Quick check_leakage_magnitude;
    Alcotest.test_case "gate state packing" `Quick check_gate_state_packing;
    Alcotest.test_case "expected leakage interpolates" `Quick
      check_expected_leakage_interpolates;
    QCheck_alcotest.to_alcotest prop_total_is_sum_of_gates;
    Alcotest.test_case "tables share the cell rows" `Quick
      check_tables_share_cell_rows;
  ]
