(* Tests of the benchmark's own logic: the traced recomposition, the
   seeded traffic, the percentile rule, the aggregates, and the metric
   list in BENCHMARK.json. *)

open Perfbench
module Flow = Scanpower.Flow

let recomposition name () =
  let c = Circuits.by_name name in
  let traced = Layers.run_benchmark ~seed:42 c in
  let library = Flow.run_benchmark ~seed:42 c in
  Alcotest.(check (list string)) "differing fields" [] (Layers.diff traced library)

let tenant_texts seed =
  List.map
    (fun p -> Netlist.Bench_writer.to_string (Circuits.generate p))
    (Mix.tenant_profiles ~seed)

let seeded_traffic () =
  let n = 1000 in
  Alcotest.(check bool) "same seed, same sequence" true
    (Mix.sequence ~seed:5 n = Mix.sequence ~seed:5 n);
  Alcotest.(check (list string)) "same seed, same tenants" (tenant_texts 5) (tenant_texts 5);
  Alcotest.(check bool) "other seed, other sequence" false
    (Mix.sequence ~seed:5 n = Mix.sequence ~seed:6 n);
  List.iter2
    (fun a b -> Alcotest.(check bool) "other seed, other tenant" false (a = b))
    (tenant_texts 5) (tenant_texts 6);
  (* every deck of 100 requests holds the exact shares *)
  let flows =
    Array.fold_left
      (fun acc (i : Mix.item) -> match i with Flow_warm _ -> acc + 1 | _ -> acc)
      0 (Array.sub (Mix.sequence ~seed:5 n) 300 100)
  in
  Alcotest.(check int) "warm flows per 100" 55 flows

let percentile_rule () =
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  let p90 n = Stats.percentile ~p:90 (upto n) in
  Alcotest.(check (option (float 1e-9))) "99 samples: 9 beyond p90" None (p90 99);
  Alcotest.(check (option (float 1e-9))) "100 samples: 10 beyond p90" (Some 90.1) (p90 100);
  Alcotest.(check (option (float 1e-9))) "19 samples: 9 beyond p50" None
    (Stats.percentile ~p:50 (upto 19));
  Alcotest.(check (float 1e-9)) "median" 10.5 (Stats.median (upto 20))

let row ~trad ~prop =
  let c = Flow.run_benchmark ~seed:42 (Circuits.s27 ()) in
  let tech static = { c.traditional with static_uw = static; dynamic_per_hz_uw = static *. 2.0 } in
  { c with traditional = tech trad; proposed = tech prop }

let aggregates () =
  (* Σtrad = 10 + 30 = 40, Σprop = 8 + 12 = 20: a 50% reduction, where
     the mean of the per-row reductions (20% and 60%) would be 40% *)
  let rows = [ row ~trad:10.0 ~prop:8.0; row ~trad:30.0 ~prop:12.0 ] in
  Alcotest.(check (float 1e-9)) "static" 50.0 (Stats.static_reduction_pct rows);
  Alcotest.(check (float 1e-9)) "dynamic" 50.0 (Stats.dynamic_reduction_pct rows)

let ordering () =
  let c = Flow.run_benchmark ~seed:42 (Circuits.s27 ()) in
  let tech static dynamic = { c.traditional with static_uw = static; dynamic_per_hz_uw = dynamic } in
  let cmp ~ic ~prop = { c with traditional = tech 10.0 2.0; input_control = ic; proposed = prop } in
  let holds ~ic ~prop = Stats.ordering_holds (cmp ~ic ~prop) in
  Alcotest.(check bool) "proposed below both" true
    (holds ~ic:(tech 9.0 1.5) ~prop:(tech 8.0 1.0));
  (* input control leaking more than traditional scan, as on s641 for
     some seeds and in six rows of the paper's Table I *)
  Alcotest.(check bool) "input control above traditional" true
    (holds ~ic:(tech 10.5 1.5) ~prop:(tech 8.0 1.0));
  Alcotest.(check bool) "proposed leaks more than input control" false
    (holds ~ic:(tech 9.0 1.5) ~prop:(tech 9.5 1.0));
  Alcotest.(check bool) "proposed leaks more than traditional" false
    (holds ~ic:(tech 11.0 1.5) ~prop:(tech 10.5 1.0));
  Alcotest.(check bool) "proposed switches more than traditional" false
    (holds ~ic:(tech 9.0 1.5) ~prop:(tech 8.0 2.5))

let host_speed () =
  let h = Host.create () in
  Alcotest.(check (float 1e-9)) "speed before any sample" 1.0 (Host.speed h);
  (* a host half as fast as the reference: the loop takes twice as long *)
  let slow = { Host.wall_s = 2.0; samples = 5; ref_s = 5.0 *. 2.0 *. Host.nominal_s } in
  Alcotest.(check (float 1e-9)) "own samples" 1.0 (Host.at_speed h slow);
  Alcotest.(check (float 1e-9)) "too few samples: the run's speed" 2.0
    (Host.at_speed h { slow with samples = 4 });
  (* the time spent sampling is not the op's *)
  let (), i = Host.timed h (fun () -> Host.sample h) in
  Alcotest.(check int) "one sample" 1 i.samples;
  Alcotest.(check bool) "sampling subtracted" true (i.wall_s < i.ref_s)

let benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let json = Result.get_ok (Telemetry.Json.of_string text) in
  let listed key =
    match Telemetry.Json.member key json with
    | Some (Telemetry.Json.List ms) ->
      List.map
        (fun m ->
          match (Telemetry.Json.member "name" m, Telemetry.Json.member "unit" m) with
          | Some (Telemetry.Json.String n), Some (Telemetry.Json.String u) -> (n, u)
          | _ -> Alcotest.fail ("malformed metric in " ^ key))
        ms
    | _ -> Alcotest.fail ("no " ^ key ^ " list")
  in
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "end_to_end" Metrics.end_to_end (listed "end_to_end");
  Alcotest.check pair "per_layer" Metrics.per_layer (listed "per_layer")

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "traced recomposition equals Flow on s27" `Quick
            (recomposition "s27");
          Alcotest.test_case "traced recomposition equals Flow on s344" `Quick
            (recomposition "s344");
          Alcotest.test_case "seeded traffic and tenants" `Quick seeded_traffic;
          Alcotest.test_case "percentile ten-beyond rule" `Quick percentile_rule;
          Alcotest.test_case "reduction aggregates" `Quick aggregates;
          Alcotest.test_case "Table I ordering check" `Quick ordering;
          Alcotest.test_case "host speed scaling" `Quick host_speed;
          Alcotest.test_case "BENCHMARK.json lists the printed metrics" `Quick
            benchmark_json ] ) ]
