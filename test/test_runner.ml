(* The parallel sweep runner: content-addressed cache, fork pool with
   crash isolation / timeout / retry, and the flow sweep built on top
   of them — including the golden guarantee that a parallel, cached
   sweep is bit-identical to the sequential per-circuit flow. *)

module Json = Telemetry.Json

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "scanpower-runner-test-%d-%d" (Unix.getpid ()) !counter)

(* ------------------------------------------------------------------ *)
(* cache                                                               *)
(* ------------------------------------------------------------------ *)

let check_cache_hit_and_miss () =
  let cache = Runner.Cache.create ~dir:(tmp_dir ()) () in
  let k1 = Runner.Cache.key ~schema:"t/1" ~parts:[ "netlist"; "seed=1" ] in
  let k2 = Runner.Cache.key ~schema:"t/1" ~parts:[ "netlist"; "seed=2" ] in
  let k3 = Runner.Cache.key ~schema:"t/2" ~parts:[ "netlist"; "seed=1" ] in
  Alcotest.(check bool) "params change the key" true (k1 <> k2);
  Alcotest.(check bool) "schema changes the key" true (k1 <> k3);
  Alcotest.(check bool) "no aliasing across part boundaries" true
    (Runner.Cache.key ~schema:"t/1" ~parts:[ "ab"; "c" ]
    <> Runner.Cache.key ~schema:"t/1" ~parts:[ "a"; "bc" ]);
  Alcotest.(check bool) "miss before store" true
    (Runner.Cache.find cache k1 = None);
  Runner.Cache.store cache k1 (Json.Int 7);
  (match Runner.Cache.find cache k1 with
  | Some (Json.Int 7) -> ()
  | _ -> Alcotest.fail "expected a hit with the stored value");
  Alcotest.(check bool) "identical inputs, identical key" true
    (Runner.Cache.key ~schema:"t/1" ~parts:[ "netlist"; "seed=1" ] = k1);
  Alcotest.(check bool) "other key still misses" true
    (Runner.Cache.find cache k2 = None)

let check_cache_corruption_recovery () =
  let cache = Runner.Cache.create ~dir:(tmp_dir ()) () in
  let k = Runner.Cache.key ~schema:"t/1" ~parts:[ "x" ] in
  Runner.Cache.store cache k (Json.String "good");
  let path = Runner.Cache.entry_path cache k in
  (* truncate the entry mid-JSON, as a crashed writer would *)
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"schema\":\"scanpower.cache/1\",\"key\":\"");
  Alcotest.(check bool) "corrupt entry reads as a miss" true
    (Runner.Cache.find cache k = None);
  Alcotest.(check bool) "corrupt entry no longer in the way" false
    (Sys.file_exists path);
  (* quarantined for post-mortem, not silently destroyed *)
  Alcotest.(check bool) "corrupt bytes preserved" true
    (Sys.file_exists (Runner.Cache.corrupt_path path));
  Runner.Cache.store cache k (Json.String "fresh");
  (match Runner.Cache.find cache k with
  | Some (Json.String "fresh") -> ()
  | _ -> Alcotest.fail "store after recovery should hit again");
  (* an entry from an older schema is stale, not corrupt: removed
     cleanly, nothing quarantined *)
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        "{\"schema\":\"scanpower.cache/0\",\"key\":\"x\",\"value\":1}");
  Sys.remove (Runner.Cache.corrupt_path path);
  Alcotest.(check bool) "stale schema is a miss" true
    (Runner.Cache.find cache k = None);
  Alcotest.(check bool) "stale entry deleted, not quarantined" false
    (Sys.file_exists (Runner.Cache.corrupt_path path))

(* ------------------------------------------------------------------ *)
(* pool                                                                *)
(* ------------------------------------------------------------------ *)

let job id run = { Runner.id; cache_key = None; run }

let value_of = function
  | { Runner.outcome = Runner.Done { value; _ }; _ } -> value
  | { Runner.outcome = Runner.Failed { last; _ }; job } ->
    Alcotest.fail
      (Printf.sprintf "job %s failed: %s" job.Runner.id
         (Runner.failure_to_string last))

let check_sequential () =
  let results, stats =
    Runner.run
      ~config:{ Runner.default_config with jobs = 1 }
      [
        job "a" (fun ~attempt:_ -> Json.Int 1);
        job "b" (fun ~attempt:_ -> Json.Int 2);
      ]
  in
  Alcotest.(check (list int))
    "values in submission order" [ 1; 2 ]
    (List.map
       (fun r -> match value_of r with Json.Int i -> i | _ -> -1)
       results);
  Alcotest.(check int) "computed" 2 stats.Runner.computed;
  Alcotest.(check int) "failed" 0 stats.Runner.failed

let check_parallel_values () =
  let n = 7 in
  let jobs =
    List.init n (fun i ->
        job (string_of_int i) (fun ~attempt:_ -> Json.Int (i * i)))
  in
  let results, stats =
    Runner.run ~config:{ Runner.default_config with jobs = 3 } jobs
  in
  List.iteri
    (fun i r ->
      match value_of r with
      | Json.Int v -> Alcotest.(check int) "squared" (i * i) v
      | _ -> Alcotest.fail "expected an int back")
    results;
  Alcotest.(check int) "computed" n stats.Runner.computed

let check_crash_isolation_and_retry () =
  (* the victim kills its own worker process on the first attempt; the
     bystander must be unaffected and the victim must succeed on retry *)
  let victim =
    job "victim" (fun ~attempt ->
        if attempt = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        Json.String "survived")
  in
  let bystander = job "bystander" (fun ~attempt:_ -> Json.String "fine") in
  let results, stats =
    Runner.run
      ~config:{ Runner.default_config with jobs = 2; retries = 2 }
      [ victim; bystander ]
  in
  (match results with
  | [ v; b ] ->
    (match v.Runner.outcome with
    | Runner.Done { value = Json.String "survived"; attempts = 2; _ } -> ()
    | Runner.Done { attempts; _ } ->
      Alcotest.fail (Printf.sprintf "expected 2 attempts, got %d" attempts)
    | Runner.Failed _ -> Alcotest.fail "victim should succeed on retry");
    (match b.Runner.outcome with
    | Runner.Done { value = Json.String "fine"; _ } -> ()
    | _ -> Alcotest.fail "bystander must not be harmed")
  | _ -> Alcotest.fail "two results expected");
  Alcotest.(check int) "one crash" 1 stats.Runner.crashes;
  Alcotest.(check int) "one retry" 1 stats.Runner.retries;
  Alcotest.(check int) "nothing failed" 0 stats.Runner.failed

(* a forked batch (one job always failing) reports the same outcomes,
   in submission order, and the same tallies as the in-process run *)
let outcomes results =
  List.map
    (fun r ->
      match r.Runner.outcome with
      | Runner.Done { value; _ } -> Ok value
      | Runner.Failed { last; _ } -> Error (Runner.failure_to_string last))
    results

let check_forked_matches_sequential () =
  let jobs () =
    List.init 12 (fun i ->
        job
          (Printf.sprintf "job%d" i)
          (fun ~attempt:_ ->
            if i = 5 then failwith "job five always fails" else Json.Int (i * i)))
  in
  let seq, seq_stats =
    Runner.run ~config:{ Runner.default_config with jobs = 1 } (jobs ())
  in
  let forked, forked_stats =
    Runner.run ~config:{ Runner.default_config with jobs = 4 } (jobs ())
  in
  Alcotest.(check bool) "same outcomes" true (outcomes seq = outcomes forked);
  Alcotest.(check int) "computed" seq_stats.Runner.computed
    forked_stats.Runner.computed;
  Alcotest.(check int) "failed" seq_stats.Runner.failed
    forked_stats.Runner.failed

(* a job that raises on attempt 1 and succeeds on attempt 2 is retried
   in a fresh worker *)
let check_forked_retry_after_error () =
  let flaky =
    job "flaky" (fun ~attempt ->
        if attempt < 2 then failwith "first attempt fails" else Json.Int attempt)
  in
  let results, stats =
    Runner.run
      ~config:{ Runner.default_config with jobs = 2; retries = 2 }
      [ flaky ]
  in
  (match outcomes results with
  | [ Ok (Json.Int 2) ] -> ()
  | _ -> Alcotest.fail "flaky job did not succeed on retry");
  Alcotest.(check int) "one retry" 1 stats.Runner.retries

let check_timeout () =
  let sleeper =
    job "sleeper" (fun ~attempt:_ ->
        Unix.sleepf 30.0;
        Json.Null)
  in
  let results, stats =
    Runner.run
      ~config:
        { Runner.default_config with jobs = 2; retries = 0; timeout_s = 0.2 }
      [ sleeper ]
  in
  (match results with
  | [ { Runner.outcome = Runner.Failed { last = Runner.Timed_out; _ }; _ } ] ->
    ()
  | _ -> Alcotest.fail "expected a Timed_out failure");
  Alcotest.(check int) "one timeout" 1 stats.Runner.timeouts

let check_job_error_reported () =
  let boom = job "boom" (fun ~attempt:_ -> failwith "deliberate") in
  let results, stats =
    Runner.run
      ~config:{ Runner.default_config with jobs = 2; retries = 0 }
      [ boom ]
  in
  (match results with
  | [ { Runner.outcome = Runner.Failed { last = Runner.Job_error msg; _ }; _ } ]
    ->
    Alcotest.(check bool) "message carried across the pipe" true
      (let needle = "deliberate" in
       let n = String.length needle and h = String.length msg in
       let rec go i = i + n <= h && (String.sub msg i n = needle || go (i + 1)) in
       go 0)
  | _ -> Alcotest.fail "expected a Job_error failure");
  Alcotest.(check int) "counted as failed" 1 stats.Runner.failed

let check_runner_cache_round () =
  let cache = Runner.Cache.create ~dir:(tmp_dir ()) () in
  let calls = ref 0 in
  let key = Runner.Cache.key ~schema:"t/1" ~parts:[ "the-job" ] in
  let j =
    {
      Runner.id = "cached-job";
      cache_key = Some key;
      run =
        (fun ~attempt:_ ->
          incr calls;
          Json.Int 5);
    }
  in
  let config =
    { Runner.default_config with jobs = 1; cache = Some cache }
  in
  let r1, s1 = Runner.run ~config [ j ] in
  let r2, s2 = Runner.run ~config [ j ] in
  Alcotest.(check int) "closure ran once" 1 !calls;
  Alcotest.(check int) "first run computed" 1 s1.Runner.computed;
  Alcotest.(check int) "second run computed nothing" 0 s2.Runner.computed;
  Alcotest.(check int) "second run hit" 1 s2.Runner.cache_hits;
  match (r1, r2) with
  | ( [ { Runner.outcome = Runner.Done { from_cache = false; _ }; _ } ],
      [
        {
          Runner.outcome = Runner.Done { from_cache = true; value = Json.Int 5; _ };
          _;
        };
      ] ) ->
    ()
  | _ -> Alcotest.fail "expected computed-then-cached outcomes"

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let small_generated () =
  Circuits.generate
    { Circuits.name = "swp"; n_pi = 6; n_po = 4; n_ff = 5; n_gates = 60;
      seed = 99 }

let check_comparison_json_roundtrip () =
  let cmp = Scanpower.Flow.run_benchmark ~seed:7 (Circuits.s27 ()) in
  let text = Json.to_string (Scanpower.Sweep.comparison_to_json cmp) in
  match Json.of_string text with
  | Error e -> Alcotest.fail ("emitted JSON must parse: " ^ e)
  | Ok parsed -> (
    match Scanpower.Sweep.comparison_of_json parsed with
    | Error e -> Alcotest.fail ("round-trip decode failed: " ^ e)
    | Ok cmp' ->
      Alcotest.(check int) "bit-identical through JSON" 0 (compare cmp cmp'))

(* the acceptance golden: a parallel sweep with cache equals the
   sequential per-circuit flow bit for bit, a second identical sweep
   is pure cache (zero flow recomputation, visible in the telemetry
   counters), and the cached results are still identical *)
let check_sweep_golden_and_cache () =
  let dir = tmp_dir () in
  let circuits = [ Circuits.s27 (); small_generated () ] in
  let expected = List.map (Scanpower.Flow.run_benchmark ~seed:42) circuits in
  let run_once () =
    Scanpower.Sweep.run ~jobs:2 ~cache:(Runner.Cache.create ~dir ())
      (Scanpower.Sweep.points ~seeds:[ 42 ] circuits)
  in
  let check_identical tag (report : Scanpower.Sweep.report) =
    List.iter2
      (fun exp (r : Scanpower.Sweep.job_result) ->
        match r.Scanpower.Sweep.comparison with
        | Ok got ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s bit-identical" tag r.Scanpower.Sweep.circuit)
            0 (compare exp got)
        | Error e -> Alcotest.fail e)
      expected report.Scanpower.Sweep.results
  in
  let r1 = run_once () in
  check_identical "computed" r1;
  Alcotest.(check int) "first sweep computed everything" 2
    r1.Scanpower.Sweep.stats.Runner.computed;
  (* second run: watch the runner's own telemetry counters *)
  let was_enabled = Telemetry.enabled () in
  Telemetry.enable ();
  Telemetry.reset ();
  let r2 = run_once () in
  let counter name = Telemetry.Counter.find name in
  Alcotest.(check (option int))
    "zero flow recomputation" (Some 0)
    (counter "runner.jobs.computed");
  Alcotest.(check (option int))
    "every point served from cache" (Some 2)
    (counter "runner.cache.hit");
  Telemetry.reset ();
  if not was_enabled then Telemetry.disable ();
  check_identical "cached" r2;
  List.iter
    (fun (r : Scanpower.Sweep.job_result) ->
      Alcotest.(check bool) "from cache" true r.Scanpower.Sweep.from_cache;
      Alcotest.(check bool) "cached telemetry travels along" true
        (r.Scanpower.Sweep.telemetry <> None))
    r2.Scanpower.Sweep.results;
  (* the aggregate reports stay parseable / well-formed *)
  (match Json.of_string (Json.to_string (Scanpower.Sweep.to_json r2)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("report JSON must parse: " ^ e));
  let csv = Scanpower.Sweep.to_csv r2 in
  Alcotest.(check int) "csv: header + one line per job" 3
    (List.length
       (String.split_on_char '\n' (String.trim csv)))

(* a forked sweep and an in-process sweep of the same points agree
   comparison for comparison *)
let check_sweep_forked_matches_sequential () =
  let points = Scanpower.Sweep.points ~seeds:[ 42 ] [ Circuits.s27 () ] in
  let comparisons report =
    List.map
      (fun (r : Scanpower.Sweep.job_result) ->
        match r.Scanpower.Sweep.comparison with
        | Ok c -> Json.to_string (Scanpower.Sweep.comparison_to_json c)
        | Error m -> "error:" ^ m)
      report.Scanpower.Sweep.results
  in
  let seq = Scanpower.Sweep.run ~jobs:1 ~capture_telemetry:false points in
  let forked = Scanpower.Sweep.run ~jobs:2 points in
  Alcotest.(check (list string))
    "forked sweep = sequential sweep" (comparisons seq) (comparisons forked)

(* a sequential sweep over one circuit x 3 seeds prepares once: the
   first point misses the registry, the other two hit, and every seed's
   comparison is the one-shot flow's *)
let check_sweep_registry_reuse () =
  let module R = Scanpower.Registry in
  let module Flow = Scanpower.Flow in
  let c = small_generated () in
  let seeds = [ 3; 5; 8 ] in
  let reg = R.create () in
  let report =
    Scanpower.Sweep.run ~capture_telemetry:false ~registry:reg
      (Scanpower.Sweep.points ~seeds [ c ])
  in
  let s = R.stats reg in
  Alcotest.(check int) "one prepare" 1 s.R.s_misses;
  Alcotest.(check int) "two warm points" 2 s.R.s_hits;
  List.iter2
    (fun seed (r : Scanpower.Sweep.job_result) ->
      match r.Scanpower.Sweep.comparison with
      | Ok cmp ->
        Alcotest.(check int)
          (Printf.sprintf "seed %d = Flow.run_benchmark" seed)
          0
          (compare (Flow.run_benchmark ~seed c) cmp)
      | Error m -> Alcotest.fail m)
    seeds report.Scanpower.Sweep.results;
  (* a re-parsed copy of the same netlist hits too: the registry is
     keyed by content, not physical identity *)
  let c' =
    Netlist.Bench_parser.parse_string ~name:"swp"
      (Netlist.Bench_writer.to_string c)
  in
  let get c =
    R.find_or_prepare reg ~key:(Flow.prepare_key c) ~name:"swp" (fun () ->
        Alcotest.fail "a resident circuit must not be prepared again")
  in
  let p, _ = get c in
  let p', hit = get c' in
  Alcotest.(check bool) "content-keyed" true (hit && p' == p);
  (* evaluating twice off one prepared must be deterministic: evaluate
     does not mutate its input *)
  let a = Flow.evaluate ~seed:5 p in
  let b = Flow.evaluate ~seed:5 p in
  Alcotest.(check int) "evaluate is repeatable on a shared prepare" 0
    (compare a b)

let suite =
  [
    Alcotest.test_case "cache hit and miss" `Quick check_cache_hit_and_miss;
    Alcotest.test_case "cache corruption recovery" `Quick
      check_cache_corruption_recovery;
    Alcotest.test_case "sequential pool" `Quick check_sequential;
    Alcotest.test_case "parallel values" `Quick check_parallel_values;
    Alcotest.test_case "crash isolation and retry" `Quick
      check_crash_isolation_and_retry;
    Alcotest.test_case "forked = sequential outcomes" `Quick
      check_forked_matches_sequential;
    Alcotest.test_case "forked retry after job error" `Quick
      check_forked_retry_after_error;
    Alcotest.test_case "timeout" `Quick check_timeout;
    Alcotest.test_case "job error reported" `Quick check_job_error_reported;
    Alcotest.test_case "runner cache round" `Quick check_runner_cache_round;
    Alcotest.test_case "comparison json roundtrip" `Quick
      check_comparison_json_roundtrip;
    Alcotest.test_case "sweep golden + cache" `Quick
      check_sweep_golden_and_cache;
    Alcotest.test_case "sweep jobs=2 = jobs=1" `Quick
      check_sweep_forked_matches_sequential;
    Alcotest.test_case "sweep registry reuse" `Quick check_sweep_registry_reuse;
  ]
