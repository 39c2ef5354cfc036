(* Chaos suite: deterministic fault injection driving every recovery
   path in the runner stack. The headline guarantee: a sweep that
   suffers injected crashes, exits, hangs and truncated pipe writes
   still completes and is bit-identical to a clean run, with the
   recovery counters proving the faults actually fired. *)

module Json = Telemetry.Json
module Sweep = Scanpower.Sweep
module FI = Runner.Fault_inject

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter
      (fun entry -> remove_tree (Filename.concat path entry))
      (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* [f] gets a fresh path under the temp dir (not created); whatever [f]
   leaves there is removed when it returns or raises *)
let with_tmp_dir =
  let counter = ref 0 in
  fun f ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "scanpower-chaos-test-%d-%d" (Unix.getpid ()) !counter)
    in
    Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let small ?(gates = 30) name seed =
  Circuits.generate
    { Circuits.name; n_pi = 5; n_po = 3; n_ff = 4; n_gates = gates; seed }

let rec count_corrupt dir =
  Array.fold_left
    (fun n entry ->
      let p = Filename.concat dir entry in
      if Sys.is_directory p then n + count_corrupt p
      else if Filename.check_suffix p ".corrupt" then n + 1
      else n)
    0 (Sys.readdir dir)

(* ------------------------------------------------------------------ *)
(* the headline: chaos sweep is bit-identical to a clean sweep         *)
(* ------------------------------------------------------------------ *)

(* the seed is part of the contract: the same spec replays the same
   faults, so this test either always passes or always fails *)
let default_chaos =
  {
    FI.seed = 20250805;
    rates =
      [
        (FI.Child_crash, 0.2); (FI.Child_exit, 0.1); (FI.Child_hang, 0.05);
        (FI.Truncated_write, 0.15);
      ];
  }

(* Honour the CI chaos job's SCANPOWER_FAULT_INJECT, except that an
   injected ATPG abort legitimately changes results and would break
   bit-identity — that site has its own test below. *)
let chaos_spec () =
  let spec =
    match Sys.getenv_opt "SCANPOWER_FAULT_INJECT" with
    | Some s when String.trim s <> "" -> (
      match FI.of_spec s with Ok t -> t | Error _ -> default_chaos)
    | _ -> default_chaos
  in
  let spec =
    { spec with
      FI.rates = List.filter (fun (s, _) -> s <> FI.Atpg_abort) spec.FI.rates }
  in
  if List.for_all (fun (_, r) -> r = 0.0) spec.FI.rates then default_chaos
  else spec

let check_chaos_sweep_bit_identical () =
  let circuits =
    List.init 12 (fun i -> small (Printf.sprintf "chaos%02d" i) (100 + i))
  in
  let points = Sweep.points circuits in
  let clean = Sweep.run ~jobs:2 points in
  let spec = chaos_spec () in
  let chaos =
    FI.with_spec (Some spec) (fun () ->
        (* poison detection off: injected faults legitimately repeat *)
        Sweep.run ~jobs:3 ~timeout_s:2.5 ~retries:10 ~poison_threshold:0
          points)
  in
  Alcotest.(check bool) "chaos batch completes" true (Sweep.all_ok chaos);
  List.iter2
    (fun (a : Sweep.job_result) (b : Sweep.job_result) ->
      match (a.Sweep.comparison, b.Sweep.comparison) with
      | Ok x, Ok y ->
        Alcotest.(check int)
          (a.Sweep.circuit ^ " bit-identical to the clean run")
          0 (compare x y)
      | _ -> Alcotest.fail (a.Sweep.circuit ^ ": expected two Ok results"))
    clean.Sweep.results chaos.Sweep.results;
  let s = chaos.Sweep.stats in
  Alcotest.(check bool) "recovery counters nonzero" true
    (s.Runner.crashes + s.Runner.timeouts + s.Runner.retries > 0)

(* ------------------------------------------------------------------ *)
(* corrupt cache entries are quarantined and recomputed                *)
(* ------------------------------------------------------------------ *)

let check_corrupt_cache_quarantined () =
  with_tmp_dir @@ fun dir ->
  let circuits =
    List.init 3 (fun i -> small ~gates:25 (Printf.sprintf "cc%d" i) (200 + i))
  in
  let points = Sweep.points circuits in
  let corrupt = { FI.seed = 9; rates = [ (FI.Corrupt_cache, 1.0) ] } in
  let r1 =
    FI.with_spec (Some corrupt) (fun () ->
        Sweep.run ~capture_telemetry:false
          ~cache:(Runner.Cache.create ~dir ())
          points)
  in
  Alcotest.(check bool) "run with corrupting stores still ok" true
    (Sweep.all_ok r1);
  Alcotest.(check int) "everything computed" 3 r1.Sweep.stats.Runner.computed;
  (* every stored entry was truncated: the clean run must quarantine
     them all and recompute — never crash, never serve garbage *)
  let r2 =
    Sweep.run ~capture_telemetry:false
      ~cache:(Runner.Cache.create ~dir ())
      points
  in
  Alcotest.(check int) "all recomputed" 3 r2.Sweep.stats.Runner.computed;
  Alcotest.(check int) "no poisoned hits" 0 r2.Sweep.stats.Runner.cache_hits;
  List.iter2
    (fun (a : Sweep.job_result) (b : Sweep.job_result) ->
      Alcotest.(check bool) "identical after recovery" true
        (compare a.Sweep.comparison b.Sweep.comparison = 0))
    r1.Sweep.results r2.Sweep.results;
  Alcotest.(check int) "evidence preserved as .corrupt files" 3
    (count_corrupt dir);
  (* the entries rewritten by the clean run now hit *)
  let r3 =
    Sweep.run ~capture_telemetry:false
      ~cache:(Runner.Cache.create ~dir ())
      points
  in
  Alcotest.(check int) "cache repaired" 3 r3.Sweep.stats.Runner.cache_hits;
  Alcotest.(check int) "nothing recomputed" 0 r3.Sweep.stats.Runner.computed

(* ------------------------------------------------------------------ *)
(* poison detection                                                    *)
(* ------------------------------------------------------------------ *)

let check_poison_quarantine () =
  let boom =
    {
      Runner.id = "boom"; cache_key = None;
      run = (fun ~attempt:_ -> failwith "same crash every time");
    }
  in
  let cfg = { Runner.default_config with retries = 10; poison_threshold = 3 } in
  let results, stats = Runner.run ~config:cfg [ boom ] in
  (match results with
  | [ { Runner.outcome = Runner.Failed { attempts; last = Runner.Job_error _; quarantined }; _ } ] ->
    Alcotest.(check int) "cut off at the threshold, not after 11 attempts" 3
      attempts;
    Alcotest.(check bool) "quarantined" true quarantined
  | _ -> Alcotest.fail "expected one quarantined failure");
  Alcotest.(check int) "stats.quarantined" 1 stats.Runner.quarantined;
  Alcotest.(check int) "two retries before the quarantine" 2
    stats.Runner.retries

let check_varied_failures_not_poisoned () =
  (* different message each attempt: not a poison streak, so the job
     runs to retry exhaustion without quarantine *)
  let flaky =
    {
      Runner.id = "flaky"; cache_key = None;
      run =
        (fun ~attempt -> failwith (Printf.sprintf "different message %d" attempt));
    }
  in
  let cfg = { Runner.default_config with retries = 4; poison_threshold = 3 } in
  let results, stats = Runner.run ~config:cfg [ flaky ] in
  (match results with
  | [ { Runner.outcome = Runner.Failed { attempts = 5; quarantined = false; _ }; _ } ] -> ()
  | _ -> Alcotest.fail "expected plain retry exhaustion, no quarantine");
  Alcotest.(check int) "no quarantine" 0 stats.Runner.quarantined

(* ------------------------------------------------------------------ *)
(* backoff: exponential, capped, deterministic jitter                  *)
(* ------------------------------------------------------------------ *)

let check_backoff_deterministic () =
  let cfg =
    { Runner.default_config with backoff_s = 0.1; backoff_max_s = 1.0 }
  in
  let d1 = Runner.retry_delay_s cfg ~id:"j" ~attempt:1 in
  Alcotest.(check (float 0.0)) "same inputs, same delay" d1
    (Runner.retry_delay_s cfg ~id:"j" ~attempt:1);
  Alcotest.(check bool) "jitter stays within [base/2, base)" true
    (d1 >= 0.05 && d1 < 0.1);
  let d5 = Runner.retry_delay_s cfg ~id:"j" ~attempt:5 in
  Alcotest.(check bool) "capped by backoff_max_s" true
    (d5 >= 0.5 && d5 <= 1.0);
  Alcotest.(check bool) "different jobs are desynchronized" true
    (Runner.retry_delay_s cfg ~id:"k" ~attempt:1 <> d1);
  Alcotest.(check (float 0.0)) "no backoff when disabled" 0.0
    (Runner.retry_delay_s Runner.default_config ~id:"j" ~attempt:3)

(* ------------------------------------------------------------------ *)
(* whole-batch deadline                                                *)
(* ------------------------------------------------------------------ *)

let check_deadline_partial () =
  let slow i =
    {
      Runner.id = Printf.sprintf "slow%d" i; cache_key = None;
      run =
        (fun ~attempt:_ ->
          Unix.sleepf 0.15;
          Json.Int i);
    }
  in
  let cfg = { Runner.default_config with retries = 0; deadline_s = 0.2 } in
  let results, stats = Runner.run ~config:cfg (List.init 5 slow) in
  let done_, cut =
    List.partition
      (fun r -> match r.Runner.outcome with Runner.Done _ -> true | _ -> false)
      results
  in
  Alcotest.(check bool) "some work finished before the deadline" true
    (List.length done_ >= 1);
  Alcotest.(check bool) "the deadline cut the rest" true (List.length cut >= 1);
  List.iter
    (fun r ->
      match r.Runner.outcome with
      | Runner.Failed { last = Runner.Deadline_exceeded; _ } -> ()
      | _ -> Alcotest.fail "unfinished jobs must fail with Deadline_exceeded")
    cut;
  Alcotest.(check int) "failures counted" (List.length cut) stats.Runner.failed

(* ------------------------------------------------------------------ *)
(* SIGINT: reap children, return a partial report                      *)
(* ------------------------------------------------------------------ *)

let check_sigint_partial_report () =
  with_tmp_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let cache = Runner.Cache.create ~dir:(Filename.concat dir "cache") () in
  let quick_key = Runner.Cache.key ~schema:"sigint" ~parts:[ "quick" ] in
  (* the entry appears by atomic rename, so existing means complete *)
  let quick_stored () =
    Sys.file_exists (Runner.Cache.entry_path cache quick_key)
  in
  let timed_out = Filename.concat dir "killer-timed-out" in
  let quick =
    { Runner.id = "quick"; cache_key = Some quick_key;
      run = (fun ~attempt:_ -> Json.String "done") }
  in
  (* a worker that interrupts its own pool once [quick]'s result is
     cached: after it fires, every unfinished job must come back
     Interrupted, not hang for 30 s *)
  let killer =
    {
      Runner.id = "killer"; cache_key = None;
      run =
        (fun ~attempt:_ ->
          let deadline = Unix.gettimeofday () +. 10.0 in
          while (not (quick_stored ())) && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.005
          done;
          if not (quick_stored ()) then
            close_out (open_out timed_out);
          Unix.kill (Unix.getppid ()) Sys.sigint;
          Unix.sleepf 30.0;
          Json.Null);
    }
  in
  let sleeper i =
    {
      Runner.id = Printf.sprintf "sleeper%d" i; cache_key = None;
      run =
        (fun ~attempt:_ ->
          Unix.sleepf 30.0;
          Json.Int i);
    }
  in
  let cfg =
    { Runner.default_config with
      jobs = 2; retries = 0; handle_signals = true; cache = Some cache }
  in
  let t0 = Unix.gettimeofday () in
  let results, stats =
    Runner.run ~config:cfg (quick :: killer :: List.init 2 sleeper)
  in
  if Sys.file_exists timed_out then
    Alcotest.fail "quick's cache entry did not appear within 10 s";
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "partial report, not a 30 s hang" true (elapsed < 10.0);
  Alcotest.(check bool) "interrupted flag set" true stats.Runner.interrupted;
  (match (List.hd results).Runner.outcome with
  | Runner.Done _ -> ()
  | _ -> Alcotest.fail "the finished job must survive in the partial report");
  let cut =
    List.filter
      (fun r ->
        match r.Runner.outcome with
        | Runner.Failed { last = Runner.Interrupted; _ } -> true
        | _ -> false)
      results
  in
  Alcotest.(check int) "everything unfinished is Interrupted" 3
    (List.length cut)

(* ------------------------------------------------------------------ *)
(* SIGKILL, then re-run: the cache serves every finished point         *)
(* ------------------------------------------------------------------ *)

let check_kill_and_rerun () =
  with_tmp_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let cache_dir = Filename.concat dir "cache" in
  let circuits =
    List.init 10 (fun i -> small ~gates:45 (Printf.sprintf "kr%d" i) (300 + i))
  in
  let points = Sweep.points circuits in
  let keys = List.map Sweep.cache_key points in
  (* A hang spec under which the first point finishes and a later one
     hangs. The rolls are a pure function of the seed and the job's
     "<id>#<attempt>", and with no timeout a hung worker never comes
     back, so the batch is still running, whatever the timing, when
     the kill lands. *)
  let hangs spec =
    FI.with_spec (Some spec) (fun () ->
        List.map
          (fun (p : Sweep.point) ->
            FI.fires FI.Child_hang
              ~key:
                (Printf.sprintf "%s seed=%d#1"
                   (Netlist.Circuit.name p.Sweep.circuit)
                   p.Sweep.params.Sweep.seed))
          points)
  in
  let spec =
    let rec search seed =
      let spec = { FI.seed; rates = [ (FI.Child_hang, 0.3) ] } in
      match hangs spec with
      | false :: rest when List.mem true rest -> spec
      | _ -> search (seed + 1)
    in
    search 1
  in
  let stored () =
    let cache = Runner.Cache.create ~dir:cache_dir () in
    List.length
      (List.filter
         (fun k -> Sys.file_exists (Runner.Cache.entry_path cache k))
         keys)
  in
  flush stdout;
  flush stderr;
  let pid = Unix.fork () in
  if pid = 0 then begin
    (* its own process group, so one kill also takes the hung workers *)
    ignore (Unix.setsid ());
    (try
       FI.with_spec (Some spec) (fun () ->
           ignore
             (Sweep.run ~jobs:2
                ~cache:(Runner.Cache.create ~dir:cache_dir ())
                points))
     with _ -> ());
    Unix._exit 0
  end;
  (* kill point: at least one finished point is in the cache *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while stored () = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  (* a child that has not yet called setsid is in our group: kill it
     alone first, then the group it may have made *)
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "the sweep was still running when killed" true
    (status = Unix.WSIGNALED Sys.sigkill);
  (* whatever the killed run stored is the contract: the re-run serves
     exactly that and computes only the rest *)
  let cached = stored () in
  if cached = 0 then Alcotest.fail "no point reached the cache within 10 s";
  Telemetry.reset ();
  Telemetry.enable ();
  let r =
    Sweep.run ~jobs:2 ~cache:(Runner.Cache.create ~dir:cache_dir ()) points
  in
  let computed_counter = Telemetry.Counter.find "runner.jobs.computed" in
  Telemetry.disable ();
  let stats = r.Sweep.stats in
  Alcotest.(check bool) "re-run completes" true (Sweep.all_ok r);
  Alcotest.(check int) "finished points served from the cache" cached
    stats.Runner.cache_hits;
  Alcotest.(check int) "only unfinished points recomputed"
    (List.length points - cached)
    stats.Runner.computed;
  Alcotest.(check bool) "the hung point was recomputed" true
    (stats.Runner.computed > 0);
  Alcotest.(check (option int)) "runner.jobs.computed agrees"
    (Some stats.Runner.computed) computed_counter

(* ------------------------------------------------------------------ *)
(* forced ATPG aborts: classified, reported, never cached              *)
(* ------------------------------------------------------------------ *)

let check_atpg_abort_degrades_gracefully () =
  let c = small ~gates:60 "abort" 77 in
  let cfg =
    { Atpg.Pattern_gen.default_config with
      Atpg.Pattern_gen.backtrack_limit = 0 }
  in
  let cmp = Scanpower.Flow.run_benchmark ~atpg_config:cfg c in
  let a = cmp.Scanpower.Flow.atpg in
  Alcotest.(check bool) "some faults aborted" true
    (a.Scanpower.Flow.aborted > 0);
  Alcotest.(check string) "status classifies the abort" "aborted_faults"
    (Scanpower.Flow.atpg_status a);
  Alcotest.(check bool) "flow still produced power numbers" true
    (cmp.Scanpower.Flow.traditional.Scanpower.Flow.dynamic_per_hz_uw > 0.0)

let check_atpg_abort_injection_bypasses_cache () =
  with_tmp_dir @@ fun dir ->
  let circuits = [ small ~gates:60 "ab0" 400; small ~gates:60 "ab1" 401 ] in
  let points = Sweep.points circuits in
  let spec = { FI.seed = 3; rates = [ (FI.Atpg_abort, 1.0) ] } in
  let r1 =
    FI.with_spec (Some spec) (fun () ->
        Sweep.run ~capture_telemetry:false
          ~cache:(Runner.Cache.create ~dir ())
          points)
  in
  Alcotest.(check bool) "degraded batch completes" true (Sweep.all_ok r1);
  List.iter
    (fun (jr : Sweep.job_result) ->
      match jr.Sweep.comparison with
      | Ok c ->
        Alcotest.(check bool) (jr.Sweep.circuit ^ " reports the abort") true
          (c.Scanpower.Flow.atpg.Scanpower.Flow.aborted > 0)
      | Error e -> Alcotest.fail e)
    r1.Sweep.results;
  (* degraded results must never land in the content-addressed cache:
     a later clean run recomputes everything from scratch *)
  let r2 =
    Sweep.run ~capture_telemetry:false
      ~cache:(Runner.Cache.create ~dir ())
      points
  in
  Alcotest.(check int) "clean run recomputes everything" 2
    r2.Sweep.stats.Runner.computed;
  Alcotest.(check int) "no degraded entries served" 0
    r2.Sweep.stats.Runner.cache_hits;
  (* the default backtrack limit may still legitimately abort a few
     stubborn faults; the invariant is that the clean run aborts
     strictly fewer than the limit-0 degraded run did *)
  List.iter2
    (fun (degraded : Sweep.job_result) (clean : Sweep.job_result) ->
      match (degraded.Sweep.comparison, clean.Sweep.comparison) with
      | Ok d, Ok c ->
        Alcotest.(check bool)
          (clean.Sweep.circuit ^ " clean ATPG aborts fewer faults")
          true
          (c.Scanpower.Flow.atpg.Scanpower.Flow.aborted
          < d.Scanpower.Flow.atpg.Scanpower.Flow.aborted)
      | _ -> Alcotest.fail "expected Ok results on both runs")
    r1.Sweep.results r2.Sweep.results

(* ------------------------------------------------------------------ *)
(* the daemon under fault injection: bit-identical to one-shot         *)
(* ------------------------------------------------------------------ *)

(* A live daemon whose ATPG aborts on every machine (rate 1.0, so the
   fault deterministically fires) must return exactly what the
   one-shot path returns under the same injection: the degraded result
   is still a correct, reproducible result. Circuits are shipped
   inline over the wire, and the reference side parses the same
   serialized text, so both sides work from identical netlists. *)
let check_daemon_chaos_bit_identical () =
  let module P = Scanpower_server.Protocol in
  let module C = Scanpower_server.Client in
  let spec = { FI.seed = 77; rates = [ (FI.Atpg_abort, 1.0) ] } in
  let benches =
    List.init 3 (fun i ->
        let c = small (Printf.sprintf "dchaos%d" i) (300 + i) in
        (Netlist.Circuit.name c, Netlist.Bench_writer.to_string c))
  in
  let parsed =
    List.map (fun (name, text) -> Netlist.Bench_parser.parse_string ~name text)
      benches
  in
  let sweep_cmps inject =
    let run () =
      Sweep.run ~jobs:1 ~capture_telemetry:false
        (Sweep.points ~seeds:[ 3 ] parsed)
    in
    let report =
      if inject then FI.with_spec (Some spec) run else run ()
    in
    List.map
      (fun (jr : Sweep.job_result) ->
        match jr.Sweep.comparison with
        | Ok c -> Sweep.comparison_to_json c
        | Error m -> Alcotest.fail m)
      report.Sweep.results
  in
  let direct = sweep_cmps true in
  (* the injection must actually bite: an aborted ATPG produces a
     different (degraded) result than a clean run *)
  let clean = sweep_cmps false in
  Alcotest.(check bool) "injected abort changes the result" false
    (Json.equal (List.hd direct) (List.hd clean));
  (* the daemon inherits the armed injector at fork time *)
  let pid, socket =
    FI.with_spec (Some spec) (fun () -> Test_server.start_daemon ())
  in
  Fun.protect
    ~finally:(fun () -> ignore (Test_server.stop_daemon pid))
    (fun () ->
      Test_server.with_client socket (fun client ->
          List.iteri
            (fun i ((name, text), reference) ->
              let req =
                P.make
                  ~id:(Printf.sprintf "dc%d" i)
                  ~bench:text ~name ~seed:3 P.Sweep_point
              in
              match C.rpc client req with
              | Error e -> Alcotest.fail (Scanpower_errors.to_string e)
              | Ok v -> (
                match Json.member "comparison" v with
                | Some cmp ->
                  Alcotest.(check bool)
                    (name ^ " daemon ≡ one-shot under injection")
                    true (Json.equal reference cmp)
                | None -> Alcotest.fail "sweep-point value lacks a comparison"))
            (List.combine benches direct)))

let suite =
  [
    Alcotest.test_case "chaos sweep bit-identical to clean" `Quick
      check_chaos_sweep_bit_identical;
    Alcotest.test_case "daemon under injection bit-identical to one-shot"
      `Quick check_daemon_chaos_bit_identical;
    Alcotest.test_case "corrupt cache quarantined and recomputed" `Quick
      check_corrupt_cache_quarantined;
    Alcotest.test_case "poison quarantine" `Quick check_poison_quarantine;
    Alcotest.test_case "varied failures are not poison" `Quick
      check_varied_failures_not_poisoned;
    Alcotest.test_case "backoff deterministic, capped, jittered" `Quick
      check_backoff_deterministic;
    Alcotest.test_case "deadline yields a partial report" `Quick
      check_deadline_partial;
    Alcotest.test_case "sigint reaps and reports partial" `Quick
      check_sigint_partial_report;
    Alcotest.test_case "sigkill then re-run recomputes only the rest" `Quick
      check_kill_and_rerun;
    Alcotest.test_case "forced atpg abort degrades gracefully" `Quick
      check_atpg_abort_degrades_gracefully;
    Alcotest.test_case "injected atpg abort bypasses the cache" `Quick
      check_atpg_abort_injection_bypasses_cache;
  ]
