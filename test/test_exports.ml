(* Exporters (Graphviz, Verilog), timing reports, peak-power analysis,
   and the enhanced-scan reference structure. *)

open Netlist

let mapped name = Techmap.Mapper.map (Circuits.by_name name)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  needle = "" || go 0

(* ---------- dot ---------- *)

let check_dot_structure () =
  let c = Circuits.s27 () in
  let dot = Dot_writer.to_string c in
  Alcotest.(check bool) "digraph" true (contains ~needle:"digraph" dot);
  (* one node statement per circuit node *)
  Array.iter
    (fun nd ->
      Alcotest.(check bool)
        (Printf.sprintf "node %s present" nd.Circuit.name)
        true
        (contains ~needle:(Printf.sprintf "n%d [label=\"%s" nd.Circuit.id nd.Circuit.name) dot))
    (Circuit.nodes c);
  (* sequential edges dashed *)
  Alcotest.(check bool) "dashed D edge" true (contains ~needle:"style=dashed" dot)

let check_dot_highlight () =
  let c = Circuits.s27 () in
  let id = Circuit.find c "G11" in
  let dot = Dot_writer.to_string ~highlight:[ id ] c in
  Alcotest.(check bool) "red highlight" true (contains ~needle:"color=red" dot)

(* ---------- verilog ---------- *)

let check_verilog_structure () =
  let c = mapped "s27" in
  let v = Verilog_writer.to_string c in
  Alcotest.(check bool) "module" true (contains ~needle:"module s27" v);
  Alcotest.(check bool) "endmodule" true (contains ~needle:"endmodule" v);
  Alcotest.(check bool) "clocked dffs" true
    (contains ~needle:"always @(posedge clk)" v);
  (* every PI is an input *)
  Array.iter
    (fun id ->
      let nm = (Circuit.node c id).Circuit.name in
      Alcotest.(check bool) (nm ^ " declared input") true
        (contains ~needle:(Printf.sprintf "input %s;" nm) v))
    (Circuit.inputs c);
  (* no dollar signs survive sanitisation *)
  Alcotest.(check bool) "no $ in identifiers" false (String.contains v '$')

let check_verilog_gate_count () =
  let c = mapped "s27" in
  let v = Verilog_writer.to_string c in
  let count needle =
    let rec go i acc =
      if i + String.length needle > String.length v then acc
      else if String.sub v i (String.length needle) = needle then
        go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one primitive per gate" (Circuit.gate_count c)
    (count "  nand g" + count "  nor g" + count "  not g" + count "  buf g"
    + count "  and g" + count "  or g" + count "  xor g" + count "  xnor g")

(* ---------- path report ---------- *)

let check_top_paths () =
  let c = mapped "s344" in
  let t = Sta.analyze c in
  let paths = Sta.Path_report.top_paths ~count:5 t in
  Alcotest.(check int) "five paths" 5 (List.length paths);
  (match paths with
  | first :: _ ->
    Alcotest.check (Alcotest.float 1e-6) "worst path = critical delay"
      (Sta.critical_delay t) first.Sta.Path_report.arrival_ps;
    Alcotest.check (Alcotest.float 1e-6) "zero slack" 0.0
      first.Sta.Path_report.slack_ps
  | [] -> Alcotest.fail "no paths");
  (* arrivals are sorted decreasing and paths are connected *)
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "sorted" true
        (a.Sta.Path_report.arrival_ps >= b.Sta.Path_report.arrival_ps);
      check_sorted rest
    | [ _ ] | [] -> ()
  in
  check_sorted paths;
  List.iter
    (fun p ->
      let rec connected = function
        | a :: (b :: _ as rest) ->
          let nb = Circuit.node c b in
          Alcotest.(check bool) "edge exists" true
            (Array.exists (fun f -> f = a) nb.Circuit.fanins);
          connected rest
        | [ _ ] | [] -> ()
      in
      connected p.Sta.Path_report.nodes)
    paths

let check_slack_histogram () =
  let c = mapped "s344" in
  let t = Sta.analyze c in
  let hist = Sta.Path_report.slack_histogram ~bins:8 t in
  Alcotest.(check int) "eight bins" 8 (List.length hist);
  let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 hist in
  Alcotest.(check int) "covers all logic nodes" (Circuit.gate_count c) total;
  List.iter
    (fun (lo, hi, _) -> Alcotest.(check bool) "ordered bounds" true (lo < hi))
    hist

(* ---------- peak power ---------- *)

let check_peak_of_series () =
  let p = Power.Peak.of_series ~window:2 [| 1.0; 5.0; 3.0; 1.0 |] in
  Alcotest.check (Alcotest.float 1e-9) "max" 5.0 p.Power.Peak.maximum;
  Alcotest.(check int) "max cycle" 1 p.Power.Peak.max_cycle;
  Alcotest.check (Alcotest.float 1e-9) "mean" 2.5 p.Power.Peak.mean;
  Alcotest.check (Alcotest.float 1e-9) "window max = (5+3)/2" 4.0
    p.Power.Peak.window_mean_max;
  Alcotest.(check int) "cycles" 4 p.Power.Peak.cycles

let check_peak_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Peak.of_series: empty series")
    (fun () -> ignore (Power.Peak.of_series [||]))

let check_peak_from_scan_sim () =
  let c = mapped "s382" in
  let chain = Scan.Scan_chain.natural c in
  let vectors = Atpg.Pattern_gen.random_vectors ~seed:3 ~count:20 c in
  let m = Scan.Scan_sim.measure c chain Scan.Scan_sim.traditional ~vectors in
  Alcotest.(check int) "one sample per cycle" m.Scan.Scan_sim.cycles
    (Array.length m.Scan.Scan_sim.per_cycle_toggles);
  Alcotest.(check int) "samples sum to the toggle total"
    m.Scan.Scan_sim.total_toggles
    (Array.fold_left ( + ) 0 m.Scan.Scan_sim.per_cycle_toggles);
  let p = Power.Peak.of_toggle_series m.Scan.Scan_sim.per_cycle_toggles in
  Alcotest.(check bool) "peak above mean" true
    (p.Power.Peak.maximum >= p.Power.Peak.mean)

(* ---------- enhanced scan ---------- *)

let check_enhanced_scan_silences_shift () =
  let c = mapped "s382" in
  let chain = Scan.Scan_chain.natural c in
  let vectors = Atpg.Pattern_gen.random_vectors ~seed:5 ~count:20 c in
  let trad = Scan.Scan_sim.measure c chain Scan.Scan_sim.traditional ~vectors in
  let enh = Scan.Scan_sim.measure c chain Scan.Scan_sim.enhanced_scan ~vectors in
  Alcotest.(check bool)
    (Printf.sprintf "enhanced %d << traditional %d" enh.Scan.Scan_sim.total_toggles
       trad.Scan.Scan_sim.total_toggles)
    true
    (enh.Scan.Scan_sim.total_toggles < trad.Scan.Scan_sim.total_toggles / 2)

let check_enhanced_scan_preserves_responses () =
  let c = mapped "s27" in
  let chain = Scan.Scan_chain.natural c in
  let vectors = Atpg.Pattern_gen.random_vectors ~seed:6 ~count:20 c in
  Alcotest.(check bool) "same responses" true
    (Scan.Scan_sim.responses c chain Scan.Scan_sim.enhanced_scan ~vectors
    = Scan.Scan_sim.responses c chain Scan.Scan_sim.traditional ~vectors)

let check_flow_includes_enhanced () =
  let cmp = Scanpower.Flow.run_benchmark (Circuits.s27 ()) in
  Alcotest.(check bool) "enhanced static positive" true
    (cmp.Scanpower.Flow.enhanced_scan.Scanpower.Flow.static_uw > 0.0);
  Alcotest.(check bool) "enhanced dynamic below traditional" true
    (cmp.Scanpower.Flow.enhanced_scan.Scanpower.Flow.dynamic_per_hz_uw
    < cmp.Scanpower.Flow.traditional.Scanpower.Flow.dynamic_per_hz_uw)

let suite =
  [
    Alcotest.test_case "dot structure" `Quick check_dot_structure;
    Alcotest.test_case "dot highlight" `Quick check_dot_highlight;
    Alcotest.test_case "verilog structure" `Quick check_verilog_structure;
    Alcotest.test_case "verilog gate count" `Quick check_verilog_gate_count;
    Alcotest.test_case "top paths" `Quick check_top_paths;
    Alcotest.test_case "slack histogram" `Quick check_slack_histogram;
    Alcotest.test_case "peak of series" `Quick check_peak_of_series;
    Alcotest.test_case "peak validation" `Quick check_peak_validation;
    Alcotest.test_case "peak from scan sim" `Quick check_peak_from_scan_sim;
    Alcotest.test_case "enhanced scan silences shift" `Quick
      check_enhanced_scan_silences_shift;
    Alcotest.test_case "enhanced scan preserves responses" `Quick
      check_enhanced_scan_preserves_responses;
    Alcotest.test_case "flow includes enhanced" `Quick check_flow_includes_enhanced;
  ]

