(* The bench-diff regression gate: metric classification by suffix,
   per-class thresholds, exact-count drift, missing-metric handling and
   file loading. *)

module D = Scanpower.Bench_diff
module E = Scanpower_errors

let mk ?(fast = true) circuits = { D.fast; circuits }

let base_metrics =
  [
    ("nodes", D.I 195);
    ("faults", D.I 547);
    ("compile_s", D.F 0.010);
    ("packed_shift_s", D.F 0.002);
    ("packed_speedup", D.F 4.0);
    ("fault_sim_events_s", D.F 1.0e6);
  ]

let with_metric name v =
  List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) base_metrics

let kind_name = function
  | D.Count -> "count"
  | D.Time -> "time"
  | D.Rate -> "rate"

let check_kind_classification () =
  let check name expected =
    Alcotest.(check string) name (kind_name expected)
      (kind_name (D.kind_of_metric name))
  in
  check "nodes" D.Count;
  check "total_toggles" D.Count;
  check "compile_s" D.Time;
  check "fault_sim_cpt_s" D.Time;
  check "fault_sim_pattern_p99_s" D.Time;
  check "scalar_shift_s" D.Time;
  check "packed_speedup" D.Rate;
  check "fault_sim_speedup" D.Rate;
  (* the [_events_s] suffix wins over the bare [_s] time suffix *)
  check "fault_sim_events_s" D.Rate;
  (* gate-bearing rate pinned by literal name, independent of suffix *)
  check "serve_warm_speedup" D.Rate

let check_identical_is_clean () =
  let f = mk [ ("s344", base_metrics) ] in
  let r = D.diff f f in
  Alcotest.(check bool) "no regression" false (D.has_regression r);
  Alcotest.(check int) "all metrics compared" (List.length base_metrics)
    r.D.compared;
  Alcotest.(check (list string)) "no missing metrics" []
    (List.map snd r.D.only_old_metrics)

let check_2x_slowdown_regresses () =
  let slow = with_metric "compile_s" (D.F 0.020) in
  let r = D.diff (mk [ ("s344", base_metrics) ]) (mk [ ("s344", slow) ]) in
  Alcotest.(check bool) "2x slowdown trips the default threshold" true
    (D.has_regression r);
  match r.D.regressions with
  | [ f ] ->
    Alcotest.(check string) "the right metric" "compile_s" f.D.f_metric;
    Alcotest.(check bool) "classified as time" true (f.D.f_kind = D.Time);
    (match f.D.f_delta_pct with
    | Some d -> Alcotest.(check (float 1e-6)) "delta" 100.0 d
    | None -> Alcotest.fail "delta missing")
  | l -> Alcotest.failf "expected exactly one regression, got %d" (List.length l)

let check_noise_within_threshold_passes () =
  (* +40% is inside the default 50% window *)
  let noisy = with_metric "compile_s" (D.F 0.014) in
  let r = D.diff (mk [ ("s344", base_metrics) ]) (mk [ ("s344", noisy) ]) in
  Alcotest.(check bool) "within threshold" false (D.has_regression r)

let check_wider_threshold_passes_2x () =
  let slow = with_metric "compile_s" (D.F 0.020) in
  let r =
    D.diff ~time_threshold:5.0
      (mk [ ("s344", base_metrics) ])
      (mk [ ("s344", slow) ])
  in
  Alcotest.(check bool) "explicit CI threshold absorbs 2x" false
    (D.has_regression r)

let check_count_drift_regresses () =
  let drift = with_metric "faults" (D.I 548) in
  let r = D.diff (mk [ ("s344", base_metrics) ]) (mk [ ("s344", drift) ]) in
  Alcotest.(check bool) "any count drift regresses" true (D.has_regression r);
  match r.D.regressions with
  | [ f ] -> Alcotest.(check bool) "classified as count" true (f.D.f_kind = D.Count)
  | _ -> Alcotest.fail "expected exactly one regression"

let check_rate_drop_regresses () =
  let slow = with_metric "packed_speedup" (D.F 1.0) in
  let r = D.diff (mk [ ("s344", base_metrics) ]) (mk [ ("s344", slow) ]) in
  Alcotest.(check bool) "-75% rate drop regresses" true (D.has_regression r);
  (* but a rate *gain* never does *)
  let fast = with_metric "packed_speedup" (D.F 40.0) in
  let r' = D.diff (mk [ ("s344", base_metrics) ]) (mk [ ("s344", fast) ]) in
  Alcotest.(check bool) "rate gain is clean" false (D.has_regression r')

let check_missing_metric_regresses () =
  let missing = List.remove_assoc "compile_s" base_metrics in
  let r = D.diff (mk [ ("s344", base_metrics) ]) (mk [ ("s344", missing) ]) in
  Alcotest.(check bool) "baseline metric disappeared" true (D.has_regression r);
  Alcotest.(check (list string)) "reported by name" [ "compile_s" ]
    (List.map snd r.D.only_old_metrics)

let check_additions_are_clean () =
  (* a baseline that predates newly added bench fields / circuits *)
  let extra = ("fault_sim_pattern_p50_s", D.F 1e-6) :: base_metrics in
  let r =
    D.diff
      (mk [ ("s344", base_metrics) ])
      (mk [ ("s344", extra); ("s9234", base_metrics) ])
  in
  Alcotest.(check bool) "additions pass" false (D.has_regression r);
  Alcotest.(check (list string)) "new circuit noted" [ "s9234" ]
    r.D.only_new_circuits

let write_temp text =
  let path = Filename.temp_file "bench_diff" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  path

let check_schema_bump_pairs () =
  (* a /3 baseline gates a /4 file: shared metrics pair, and a metric
     /4 dropped is reported missing rather than silently forgotten *)
  let p3 =
    write_temp
      "{\"schema\":\"scanpower.bench_kernels/3\",\"fast\":true,\
       \"circuits\":{\"s344\":{\"nodes\":195,\"compile_s\":1.0e-04}}}"
  in
  let p3_old =
    write_temp
      "{\"schema\":\"scanpower.bench_kernels/3\",\"fast\":true,\
       \"circuits\":{\"s344\":{\"nodes\":195,\"compile_s\":1.0e-04,\
       \"fault_sim_ppsfp_s\":3.0e-03}}}"
  in
  let p4 =
    write_temp
      "{\"schema\":\"scanpower.bench_kernels/4\",\"fast\":true,\
       \"circuits\":{\"s344\":{\"nodes\":195,\"compile_s\":1.1e-04}}}"
  in
  let f3 = D.load p3 and f3_old = D.load p3_old and f4 = D.load p4 in
  List.iter Sys.remove [ p3; p3_old; p4 ];
  let r = D.diff f3 f4 in
  Alcotest.(check bool) "schema bump alone is clean" false
    (D.has_regression r);
  Alcotest.(check int) "shared metrics paired" 2 r.D.compared;
  let r' = D.diff f3_old f4 in
  Alcotest.(check (list string)) "dropped metric reported missing"
    [ "fault_sim_ppsfp_s" ]
    (List.map snd r'.D.only_old_metrics)

(* the serve stage's amortisation contract: a serve_warm_speedup drop
   beyond the rate threshold must gate, through the literal-name pin,
   not the suffix convention *)
let check_serve_warm_speedup_gates () =
  let old_f = mk [ ("serve", [ ("serve_warm_speedup", D.F 10.0) ]) ] in
  let ok = mk [ ("serve", [ ("serve_warm_speedup", D.F 9.0) ]) ] in
  let bad = mk [ ("serve", [ ("serve_warm_speedup", D.F 2.0) ]) ] in
  Alcotest.(check bool) "within threshold passes" false
    (D.has_regression (D.diff old_f ok));
  Alcotest.(check bool) "collapse regresses" true
    (D.has_regression (D.diff old_f bad))

let check_fast_mismatch_flagged () =
  let r =
    D.diff
      (mk ~fast:true [ ("s344", base_metrics) ])
      (mk ~fast:false [ ("s344", base_metrics) ])
  in
  Alcotest.(check bool) "fast mismatch noted" true r.D.fast_mismatch;
  Alcotest.(check bool) "but identical numbers still pass" false
    (D.has_regression r)

let check_load_real_shape () =
  let path =
    write_temp
      "{\"schema\":\"scanpower.bench_kernels/4\",\"fast\":true,\
       \"circuits\":{\"s344\":{\"nodes\":195,\"compile_s\":3.7e-05,\
       \"skipped\":null}}}"
  in
  let f = D.load path in
  Sys.remove path;
  Alcotest.(check bool) "fast flag" true f.D.fast;
  match f.D.circuits with
  | [ ("s344", ms) ] ->
    Alcotest.(check bool) "int metric" true (List.assoc "nodes" ms = D.I 195);
    Alcotest.(check bool) "float metric" true
      (match List.assoc "compile_s" ms with D.F _ -> true | _ -> false);
    Alcotest.(check bool) "null metric skipped" true
      (not (List.mem_assoc "skipped" ms))
  | _ -> Alcotest.fail "wrong circuit list"

let check_load_rejects_bad_input () =
  let reject text expected_code =
    let path = write_temp text in
    (match D.load path with
    | exception E.Error e ->
      Alcotest.(check string) "error class" expected_code
        (E.code_to_string e.E.code)
    | _ -> Alcotest.failf "accepted bad input: %s" text);
    Sys.remove path
  in
  reject "{\"schema\":\"something_else/9\",\"circuits\":{}}" "parse";
  (* the /1 and /2 schemas are no longer paired *)
  reject "{\"schema\":\"scanpower.bench_kernels/2\",\"circuits\":{}}" "parse";
  reject "{\"circuits\":{}}" "parse";
  reject "not json at all" "parse";
  match D.load "/nonexistent/bench.json" with
  | exception E.Error e ->
    Alcotest.(check string) "missing file is io" "io" (E.code_to_string e.E.code)
  | _ -> Alcotest.fail "accepted missing file"

let check_regression_exit_code () =
  Alcotest.(check int) "regression maps to exit 6" 6
    (E.exit_code E.Regression);
  Alcotest.(check string) "and its tag" "regression"
    (E.code_to_string E.Regression)

let check_committed_baseline_loads () =
  (* the repo's own gate baseline must stay loadable and self-identical *)
  if Sys.file_exists "BENCH_kernels.json" then begin
    let f = D.load "BENCH_kernels.json" in
    let r = D.diff f f in
    Alcotest.(check bool) "self-diff is clean" false (D.has_regression r);
    Alcotest.(check bool) "baseline has circuits" true (f.D.circuits <> [])
  end

let suite =
  [
    Alcotest.test_case "kind classification" `Quick check_kind_classification;
    Alcotest.test_case "identical is clean" `Quick check_identical_is_clean;
    Alcotest.test_case "2x slowdown regresses" `Quick
      check_2x_slowdown_regresses;
    Alcotest.test_case "noise within threshold passes" `Quick
      check_noise_within_threshold_passes;
    Alcotest.test_case "wider threshold passes 2x" `Quick
      check_wider_threshold_passes_2x;
    Alcotest.test_case "count drift regresses" `Quick
      check_count_drift_regresses;
    Alcotest.test_case "rate drop regresses" `Quick check_rate_drop_regresses;
    Alcotest.test_case "missing metric regresses" `Quick
      check_missing_metric_regresses;
    Alcotest.test_case "additions are clean" `Quick check_additions_are_clean;
    Alcotest.test_case "schema bump pairs metrics" `Quick
      check_schema_bump_pairs;
    Alcotest.test_case "serve_warm_speedup gates as a rate" `Quick
      check_serve_warm_speedup_gates;
    Alcotest.test_case "fast mismatch flagged" `Quick
      check_fast_mismatch_flagged;
    Alcotest.test_case "load real shape" `Quick check_load_real_shape;
    Alcotest.test_case "load rejects bad input" `Quick
      check_load_rejects_bad_input;
    Alcotest.test_case "regression exit code" `Quick
      check_regression_exit_code;
    Alcotest.test_case "committed baseline loads" `Quick
      check_committed_baseline_loads;
  ]
