(* Command-line front end.

   Circuits are named either by a built-in benchmark name (see
   [scanpower list]) or by a path to an ISCAS89 .bench file.

   Every pipeline command accepts the telemetry flags --log-level,
   --trace and --metrics-out; `scanpower profile` runs the whole flow
   with telemetry forced on and prints the phase tree. *)

open Cmdliner
module E = Scanpower_errors

let ( let* ) = Result.bind

(* Parse/validation/IO failures propagate as [E.Error] and are mapped
   to their documented exit codes at the bottom of this file; only an
   unknown circuit name is raised here (a usage error, exit 2). *)
let load_circuit spec =
  if List.mem spec Circuits.names then Ok (Circuits.by_name spec)
  else if Sys.file_exists spec then Ok (Netlist.Bench_parser.parse_file spec)
  else
    match Circuits.find spec with
    | Ok c -> Ok c
    | Error msg ->
      E.raise_error ~code:E.Usage ~stage:"cli"
        (msg ^ "; or pass a path to a .bench file")

let mapped spec =
  let* c = load_circuit spec in
  Ok (if Techmap.Mapper.is_mapped c then c else Techmap.Mapper.map c)

let circuit_arg =
  let doc = "Benchmark name (e.g. s344) or path to a .bench file." in
  Arg.(value & pos 0 string "s27" & info [] ~docv:"CIRCUIT" ~doc)

let seed_arg =
  let doc = "Random seed for every stochastic component." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

(* ---- telemetry flags ---- *)

type tele_opts = {
  metrics_out : string option;
  chrome_out : string option;
      (* --trace FILE with --trace-format=chrome: written at the end,
         once worker snapshots have been collected *)
}

(* Evaluates to the output paths after applying the side effects
   (enable + level + streaming trace file); commands call
   [finish_telemetry] on the result when their work is done. *)
let telemetry_term =
  let log_level =
    let doc =
      "Enable telemetry and log at $(docv) (debug, info, warn or error) on \
       stderr."
    in
    Arg.(
      value & opt (some string) None & info [ "log-level" ] ~docv:"LEVEL" ~doc)
  in
  let trace =
    let doc =
      "Enable telemetry and write a trace to $(docv); the format is chosen \
       by $(b,--trace-format)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let trace_format =
    let doc =
      "Trace format: $(b,jsonl) (streaming JSON lines: one object per log \
       record, span start and span end, default) or $(b,chrome) (Trace \
       Event JSON written when the command finishes, loadable in \
       ui.perfetto.dev or chrome://tracing; sweep worker processes appear \
       as their own tracks)."
    in
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
      & info [ "trace-format" ] ~docv:"FORMAT" ~doc)
  in
  let metrics =
    let doc =
      "Enable telemetry and write a single-shot JSON metrics snapshot \
       (counters, gauges, histograms, span tree) to $(docv) when the command \
       finishes."
    in
    Arg.(
      value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let setup lvl trace trace_format metrics =
    let* () =
      match lvl with
      | None -> Ok ()
      | Some s ->
        let* l = Telemetry.level_of_string s |> Result.map_error (fun e -> `Msg e) in
        Telemetry.enable ();
        Telemetry.set_level l;
        Ok ()
    in
    let chrome_out =
      match (trace, trace_format) with
      | None, _ -> None
      | Some path, `Jsonl ->
        Telemetry.enable ();
        Telemetry.set_trace_file path;
        None
      | Some path, `Chrome ->
        Telemetry.enable ();
        Some path
    in
    if metrics <> None then Telemetry.enable ();
    Ok { metrics_out = metrics; chrome_out }
  in
  Term.(const setup $ log_level $ trace $ trace_format $ metrics)

let finish_telemetry { metrics_out; chrome_out } =
  let write what path write_fn =
    try
      write_fn path;
      Format.eprintf "telemetry %s written to %s@." what path;
      Ok ()
    with Sys_error e ->
      Error (`Msg (Printf.sprintf "cannot write %s: %s" what e))
  in
  let written =
    let* () =
      match metrics_out with
      | None -> Ok ()
      | Some path -> write "metrics" path Telemetry.write_metrics
    in
    match chrome_out with
    | None -> Ok ()
    | Some path -> write "chrome trace" path Telemetry.write_chrome
  in
  Telemetry.close_trace ();
  written

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun name ->
        Format.printf "%-8s %s@." name
          (String.concat " "
             (List.map
                (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                (Circuits.list_columns name))))
      Circuits.names
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "List the built-in benchmark circuits with their interface and \
          size; $(b,stats) adds depth and fanin.")
    Term.(const run $ const ())

(* ---- stats ---- *)

let stats_cmd =
  let run spec tele =
    let* metrics_out = tele in
    let* c = load_circuit spec in
    Format.printf "%s: %a@." (Netlist.Circuit.name c) Netlist.Circuit.pp_stats
      (Netlist.Circuit.stats c);
    let m = if Techmap.Mapper.is_mapped c then c else Techmap.Mapper.map c in
    if not (Techmap.Mapper.is_mapped c) then
      Format.printf "mapped:  %a@." Netlist.Circuit.pp_stats
        (Netlist.Circuit.stats m);
    let t = Sta.analyze m in
    Format.printf "critical path delay: %.1f ps@." (Sta.critical_delay t);
    let mux = Scanpower.Mux_insertion.select m in
    Format.printf "AddMUX: %d of %d scan cells accept a multiplexer@."
      (Scanpower.Mux_insertion.muxable_count mux)
      (Array.length (Netlist.Circuit.dffs m));
    finish_telemetry metrics_out
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Circuit statistics, critical path and AddMUX feasibility.")
    Term.(term_result (const run $ circuit_arg $ telemetry_term))

(* ---- figure2 ---- *)

let figure2_cmd =
  let run () =
    Format.printf
      "Figure 2 reproduction: NAND2 leakage per input state (45 nm, 0.9 V)@.";
    Format.printf "%a" Techlib.Leakage_table.pp_table (Techlib.Cell.Nand 2);
    Format.printf "paper: 00=78, 01=73, 10=264, 11=408 nA@.@.";
    Format.printf "full calibrated library:@.";
    List.iter
      (fun cell -> Format.printf "%a" Techlib.Leakage_table.pp_table cell)
      Techlib.Cell.all
  in
  Cmd.v
    (Cmd.info "figure2"
       ~doc:"Print the calibrated leakage tables (reproduces Figure 2).")
    Term.(const run $ const ())

(* ---- observability ---- *)

let observability_cmd =
  let run spec count =
    let* c = mapped spec in
    let obs = Power.Observability.compute c in
    let scored =
      Array.to_list (Netlist.Circuit.nodes c)
      |> List.filter (fun nd ->
             not (Netlist.Gate.equal_kind nd.Netlist.Circuit.kind Netlist.Gate.Output))
      |> List.map (fun nd ->
             ( nd.Netlist.Circuit.name,
               Power.Observability.observability_na obs nd.Netlist.Circuit.id ))
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    Format.printf "top-%d leakage-observable lines of %s:@." count spec;
    List.iter (fun (nm, v) -> Format.printf "  %-14s %+9.1f nA@." nm v) (take count scored);
    Ok ()
  in
  let count =
    Arg.(value & opt int 10 & info [ "n"; "count" ] ~doc:"Lines to print.")
  in
  Cmd.v
    (Cmd.info "observability"
       ~doc:"Rank circuit lines by leakage observability (Eq. (6)).")
    Term.(term_result (const run $ circuit_arg $ count))

(* ---- atpg ---- *)

let atpg_cmd =
  let run spec seed out tele =
    let* metrics_out = tele in
    let* c = mapped spec in
    let config = { Atpg.Pattern_gen.default_config with seed } in
    let outcome = Atpg.Pattern_gen.generate ~config c in
    Format.printf "%a@." Atpg.Pattern_gen.pp_outcome outcome;
    (match out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      List.iter
        (fun v ->
          Array.iter (fun b -> output_char oc (if b then '1' else '0')) v;
          output_char oc '\n')
        outcome.Atpg.Pattern_gen.vectors;
      close_out oc;
      Format.printf "vectors written to %s (PIs then scan cells per line)@." path);
    finish_telemetry metrics_out
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Write the test vectors to a file.")
  in
  Cmd.v
    (Cmd.info "atpg" ~doc:"Generate a compacted stuck-at test set (PODEM).")
    Term.(
      term_result
        (const run $ circuit_arg $ seed_arg $ out $ telemetry_term))

(* ---- power ---- *)

let power_cmd =
  let run spec seed tele =
    let* metrics_out = tele in
    let* c = load_circuit spec in
    let cmp = Scanpower.Flow.run_benchmark ~seed c in
    Format.printf
      "%s: %d vectors, %d/%d cells muxed, %d gates blocked, %d reordered@."
      cmp.Scanpower.Flow.name cmp.Scanpower.Flow.n_vectors
      cmp.Scanpower.Flow.n_muxable cmp.Scanpower.Flow.n_dffs
      cmp.Scanpower.Flow.blocked_gates cmp.Scanpower.Flow.reordered_gates;
    Scanpower.Report.pp_vs_paper Format.std_formatter
      (Scanpower.Report.of_comparison cmp);
    let enh = cmp.Scanpower.Flow.enhanced_scan in
    Format.printf
      "enhanced-scan reference: dyn/f %.3e uW/Hz, static %.2f uW (full        isolation, but a hold latch per cell and a functional speed penalty)@."
      enh.Scanpower.Flow.dynamic_per_hz_uw enh.Scanpower.Flow.static_uw;
    finish_telemetry metrics_out
  in
  Cmd.v
    (Cmd.info "power"
       ~doc:
         "Full flow on one circuit: scan power of traditional, \
          input-control and the proposed structure.")
    Term.(term_result (const run $ circuit_arg $ seed_arg $ telemetry_term))

(* ---- profile ---- *)

let profile_cmd =
  let run spec seed top tele =
    let* metrics_out = tele in
    let* c = load_circuit spec in
    (* telemetry is the whole point of this command *)
    Telemetry.enable ();
    Telemetry.reset ();
    let t0 = Unix.gettimeofday () in
    let cmp = Scanpower.Flow.run_benchmark ~seed c in
    let elapsed = Unix.gettimeofday () -. t0 in
    Format.printf "%s: %d vectors, %d dffs, flow completed in %.2f s@.@."
      cmp.Scanpower.Flow.name cmp.Scanpower.Flow.n_vectors
      cmp.Scanpower.Flow.n_dffs elapsed;
    (match Telemetry.Span.find "flow.run_benchmark" with
    | Some root ->
      Telemetry.Span.pp_tree Format.std_formatter root;
      Format.printf "@.";
      Telemetry.Span.pp_profile ?top Format.std_formatter root
    | None -> Format.printf "(no span tree recorded)@.");
    Format.printf "@.counters:@.";
    List.iter
      (fun (k, v) -> Format.printf "  %-42s %10d@." k v)
      (Telemetry.Counter.all ());
    (match Telemetry.Gauge.all () with
    | [] -> ()
    | gauges ->
      Format.printf "@.gauges:@.";
      List.iter (fun (k, v) -> Format.printf "  %-42s %10.1f@." k v) gauges);
    finish_telemetry metrics_out
  in
  let top =
    Arg.(
      value
      & opt (some int) None
      & info [ "top" ] ~docv:"N"
          ~doc:
            "Limit the aggregated per-stage table to its $(docv) most \
             expensive rows (the table is sorted by time, descending).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run the full flow with telemetry on and print the span tree (wall \
          time and per-phase percentage), an aggregated per-stage table with \
          GC/allocation columns, and every counter; use --metrics-out to \
          capture the same data as JSON.")
    Term.(term_result (const run $ circuit_arg $ seed_arg $ top $ telemetry_term))

(* ---- paths ---- *)

let paths_cmd =
  let run spec count =
    let* c = mapped spec in
    let t = Sta.analyze c in
    Sta.Path_report.pp_report ~count c Format.std_formatter t;
    Ok ()
  in
  let count =
    Arg.(value & opt int 5 & info [ "n"; "count" ] ~doc:"Paths to report.")
  in
  Cmd.v
    (Cmd.info "paths" ~doc:"Timing report: top critical paths and slack histogram.")
    Term.(term_result (const run $ circuit_arg $ count))

(* ---- export ---- *)

let export_cmd =
  let run spec fmt out =
    let* c = load_circuit spec in
    let text =
      match fmt with
      | "dot" ->
        let m = if Techmap.Mapper.is_mapped c then c else Techmap.Mapper.map c in
        let t = Sta.analyze m in
        Netlist.Dot_writer.to_string ~highlight:(Sta.critical_path t) m
      | "verilog" -> Netlist.Verilog_writer.to_string c
      | "bench" -> Netlist.Bench_writer.to_string c
      | other ->
        (* unreachable through the enum converter, but keeps the error
           in-band if another caller ever bypasses it *)
        E.errorf ~code:E.Usage ~stage:"cli.export" "unknown format %S" other
    in
    (match out with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Format.printf "written to %s@." path);
    Ok ()
  in
  let fmt =
    Arg.(
      value
      & opt (enum [ ("dot", "dot"); ("verilog", "verilog"); ("bench", "bench") ]) "dot"
      & info [ "f"; "format" ]
          ~doc:"Output format: dot (critical path highlighted), verilog, bench.")
  in
  let out =
    Arg.(
      value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export the netlist (Graphviz / Verilog / .bench).")
    Term.(term_result (const run $ circuit_arg $ fmt $ out))

(* ---- peak ---- *)

let peak_cmd =
  let run spec seed window tele =
    let* metrics_out = tele in
    let* c = mapped spec in
    let chain = Scan.Scan_chain.natural c in
    let vectors = Atpg.Pattern_gen.random_vectors ~seed ~count:50 c in
    List.iter
      (fun (tag, policy) ->
        let m = Scan.Scan_sim.measure c chain policy ~vectors in
        let p =
          Power.Peak.of_toggle_series ~window m.Scan.Scan_sim.per_cycle_toggles
        in
        Format.printf "%-12s %a | peak static %.2f uW@." tag Power.Peak.pp p
          m.Scan.Scan_sim.peak_static_uw)
      [
        ("traditional", Scan.Scan_sim.traditional);
        ("enhanced", Scan.Scan_sim.enhanced_scan);
      ];
    finish_telemetry metrics_out
  in
  let window =
    Arg.(value & opt int 16 & info [ "window" ] ~doc:"Thermal window, cycles.")
  in
  Cmd.v
    (Cmd.info "peak"
       ~doc:"Per-cycle activity profile and peak power during scan.")
    Term.(
      term_result
        (const run $ circuit_arg $ seed_arg $ window $ telemetry_term))

(* ---- table1 ---- *)

let table1_cmd =
  let run names seed tele =
    let* metrics_out = tele in
    let names = if names = [] then [ "s344"; "s382"; "s444"; "s510" ] else names in
    let* rows =
      List.fold_left
        (fun acc name ->
          let* acc = acc in
          let* c = load_circuit name in
          let cmp = Scanpower.Flow.run_benchmark ~seed c in
          Ok (Scanpower.Report.of_comparison cmp :: acc))
        (Ok []) names
    in
    let rows = List.rev rows in
    Format.printf "measured:@.";
    Scanpower.Report.pp_table Format.std_formatter rows;
    Format.printf "@.paper (Table I):@.";
    Scanpower.Report.pp_table Format.std_formatter
      (List.filter_map Scanpower.Report.paper_row names);
    finish_telemetry metrics_out
  in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"CIRCUIT"
          ~doc:"Circuits to include (default: the four smallest).")
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce rows of the paper's Table I.")
    Term.(term_result (const run $ names $ seed_arg $ telemetry_term))

(* ---- validate ---- *)

let validate_cmd =
  let run specs =
    let specs = if specs = [] then Circuits.names else specs in
    let total_errors = ref 0 in
    List.iter
      (fun spec ->
        let text, file =
          if List.mem spec Circuits.names then
            (Netlist.Bench_writer.to_string (Circuits.by_name spec), None)
          else if Sys.file_exists spec then (
            ( (try In_channel.with_open_bin spec In_channel.input_all
               with Sys_error msg ->
                 E.raise_error ~code:E.Io ~stage:"cli.validate" msg),
              Some spec ))
          else
            E.raise_error ~code:E.Usage ~stage:"cli.validate"
              (Printf.sprintf
                 "unknown circuit %S: not a built-in benchmark or a file" spec)
        in
        match Netlist.Bench_parser.lint ?file text with
        | [] -> Format.printf "%-20s ok@." spec
        | diags ->
          let errs = Netlist.Validate.errors diags in
          total_errors := !total_errors + List.length errs;
          List.iter
            (fun d ->
              Format.printf "%-20s %s@." spec (Netlist.Validate.to_string d))
            diags)
      specs;
    if !total_errors > 0 then
      E.errorf ~code:E.Validation ~stage:"cli.validate"
        "%d lint error(s) across %d circuit(s)" !total_errors
        (List.length specs)
    else Ok ()
  in
  let specs =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"CIRCUIT"
          ~doc:
            "Circuits to lint: built-in benchmark names or .bench files \
             (default: every built-in benchmark).")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Lint a netlist: syntax, undriven/multiply-driven nets, \
          combinational loops, dangling fanout, arity. Prints every \
          diagnostic (not just the first) and exits 3 if any are errors.")
    Term.(term_result (const run $ specs))

(* ---- sweep ---- *)

let sweep_cmd =
  let run names jobs seeds timeout retries backoff deadline no_cache
      cache_dir out csv progress tele =
    let* metrics_out = tele in
    let names = if names = [] then Circuits.names else names in
    let* circuits =
      List.fold_left
        (fun acc name ->
          let* acc = acc in
          let* c = load_circuit name in
          Ok (c :: acc))
        (Ok []) names
    in
    let circuits = List.rev circuits in
    let points = Scanpower.Sweep.points ~seeds circuits in
    let cache =
      if no_cache then None else Some (Runner.Cache.create ?dir:cache_dir ())
    in
    let total = List.length points in
    Format.printf "sweep: %d point%s over %d circuit%s, %d worker%s, cache %s@."
      total
      (if total = 1 then "" else "s")
      (List.length circuits)
      (if List.length circuits = 1 then "" else "s")
      jobs
      (if jobs = 1 then "" else "s")
      (match cache with
      | None -> "off"
      | Some c -> Runner.Cache.dir c);
    let finished = ref 0 in
    let on_event = function
      | Runner.Started _ -> ()
      | Runner.Attempt_failed { job; attempt; failure; will_retry } ->
        Format.printf "        %-20s attempt %d %s%s@." job.Runner.id attempt
          (Runner.failure_to_string failure)
          (if will_retry then "; retrying" else "")
      | Runner.Finished { job; outcome } ->
        incr finished;
        (match outcome with
        | Runner.Done { from_cache; duration_s; attempts; _ } ->
          Format.printf "[%2d/%d] %-20s %s@." !finished total job.Runner.id
            (if from_cache then "cached"
             else
               Printf.sprintf "done in %.2fs%s" duration_s
                 (if attempts > 1 then
                    Printf.sprintf " (attempt %d)" attempts
                  else ""))
        | Runner.Failed { attempts; last; quarantined } ->
          Format.printf "[%2d/%d] %-20s %s after %d attempt%s: %s@."
            !finished total job.Runner.id
            (if quarantined then "QUARANTINED" else "FAILED")
            attempts
            (if attempts = 1 then "" else "s")
            (Runner.failure_to_string last));
        Format.pp_print_flush Format.std_formatter ()
    in
    (* the subscription lives exactly as long as the run: a later
       command in the same process must not inherit it *)
    let stop_progress =
      match progress with
      | None -> fun () -> ()
      | Some path ->
        (* the ETA comes from the job-latency histogram, which only
           records while telemetry is on *)
        Telemetry.enable ();
        let oc = if path = "-" then stderr else open_out path in
        let sub = Telemetry.Events.subscribe (Telemetry.Events.line_writer oc) in
        fun () ->
          Telemetry.Events.unsubscribe sub;
          flush oc;
          if path <> "-" then close_out oc
    in
    let t0 = Unix.gettimeofday () in
    let report =
      Fun.protect ~finally:stop_progress (fun () ->
          Scanpower.Sweep.run ~jobs ~timeout_s:timeout ~retries
            ~backoff_s:backoff ~deadline_s:deadline ~handle_signals:true ?cache
            ~on_event points)
    in
    let wall = Unix.gettimeofday () -. t0 in
    Format.printf "@.";
    Scanpower.Report.pp_table Format.std_formatter
      (Scanpower.Sweep.rows report);
    let s = report.Scanpower.Sweep.stats in
    Format.printf
      "@.pool: %d scheduled, %d computed, %d cache hit%s, %d crash%s, \
       %d timeout%s, %d retr%s, %d quarantined, %d failed%s — %.1fs wall@."
      s.Runner.scheduled s.Runner.computed s.Runner.cache_hits
      (if s.Runner.cache_hits = 1 then "" else "s")
      s.Runner.crashes
      (if s.Runner.crashes = 1 then "" else "es")
      s.Runner.timeouts
      (if s.Runner.timeouts = 1 then "" else "s")
      s.Runner.retries
      (if s.Runner.retries = 1 then "y" else "ies")
      s.Runner.quarantined s.Runner.failed
      (if s.Runner.interrupted then " (interrupted)" else "")
      wall;
    (* reports are written even for a partial batch — that is the point
       of a partial batch — before the Partial error sets exit code 5 *)
    (match out with
    | None -> ()
    | Some path ->
      Scanpower.Sweep.write_json path report;
      Format.printf "JSON report written to %s@." path);
    (match csv with
    | None -> ()
    | Some path ->
      Scanpower.Sweep.write_csv path report;
      Format.printf "CSV report written to %s@." path);
    let* finished = finish_telemetry metrics_out in
    if Scanpower.Sweep.all_ok report && not s.Runner.interrupted then
      Ok finished
    else
      E.errorf ~code:E.Partial ~stage:"sweep" "%d of %d job(s) failed%s"
        s.Runner.failed s.Runner.scheduled
        (if s.Runner.interrupted then " (batch interrupted)" else "")
  in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"CIRCUIT"
          ~doc:
            "Circuits to sweep: built-in benchmark names or .bench files \
             (default: every built-in benchmark).")
  in
  let jobs =
    Arg.(
      value & opt int 4
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Parallel workers. 1 runs everything sequentially in-process \
             and prepares (techmaps and ATPGs) each circuit once for all \
             its seeds; larger values fan jobs out over forked worker \
             processes, where every point prepares its circuit afresh, so \
             many seeds of one circuit are cheaper with $(b,--jobs) 1.")
  in
  let seeds =
    Arg.(
      value
      & opt (list int) [ 42 ]
      & info [ "seeds" ] ~docv:"S1,S2,..."
          ~doc:"Flow seeds: every circuit is evaluated at every seed.")
  in
  let timeout =
    Arg.(
      value & opt float 0.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Kill and retry a job running longer than this (0 = no timeout; \
             only enforced with --jobs > 1).")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:"Extra attempts after a crash, timeout or job error.")
  in
  let backoff =
    Arg.(
      value & opt float 0.0
      & info [ "backoff" ] ~docv:"SECONDS"
          ~doc:
            "Base delay before a retry, doubled per attempt with \
             deterministic jitter (0 = retry immediately).")
  in
  let deadline =
    Arg.(
      value & opt float 0.0
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Whole-batch wall-clock budget: jobs still unfinished when it \
             expires are marked failed and the sweep returns a partial \
             report (0 = no deadline).")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Recompute everything; touch no cache.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Result cache location (default: \\$SCANPOWER_CACHE_DIR or \
             _scanpower_cache).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the aggregate JSON report here.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write the per-job CSV report here.")
  in
  let progress =
    Arg.(
      value
      & opt (some string) None
      & info [ "progress" ] ~docv:"FILE"
          ~doc:
            "Stream line-delimited JSON progress events (job \
             started/finished/retried, cache hits, completed/total counts \
             and a latency-histogram ETA) to $(docv); $(b,-) streams to \
             stderr.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run the full flow over many circuits and seeds in parallel, with a \
          content-addressed result cache: every finished point is stored as \
          it completes, so a re-run recomputes only changed or unfinished \
          points (an interrupted sweep is finished by running it again), \
          and a crashed worker is retried without failing the sweep.")
    Term.(
      term_result
        (const run $ names $ jobs $ seeds $ timeout $ retries
       $ backoff $ deadline $ no_cache $ cache_dir $ out $ csv $ progress
       $ telemetry_term))

(* ---- serve ---- *)

let socket_arg =
  let doc = "Unix-domain socket path for the daemon protocol." in
  Arg.(
    value
    & opt string (Scanpower_server.Protocol.default_socket ())
    & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let module Daemon = Scanpower_server.Daemon in
  let module Supervisor = Scanpower_server.Supervisor in
  let run socket registry_capacity max_queue max_request_bytes
      default_deadline quiet snapshot snapshot_every max_heap_mw
      supervise restart_budget restart_refill tele =
    let* metrics_out = tele in
    let config =
      {
        Daemon.socket;
        registry_capacity;
        max_queue;
        max_request_bytes;
        default_deadline_s = default_deadline;
        log = (if quiet then None else Some stdout);
        snapshot_path = snapshot;
        snapshot_every_s = snapshot_every;
        max_heap_mw;
        generation = 0;
      }
    in
    if supervise then
      Supervisor.run
        ~config:
          {
            Supervisor.daemon = config;
            restart_budget;
            restart_refill_s = restart_refill;
          }
        ()
    else
      ignore (Daemon.run ~config () : Telemetry.Json.t);
    finish_telemetry metrics_out
  in
  let registry_capacity =
    Arg.(
      value & opt int 32
      & info [ "registry-capacity" ] ~docv:"N"
          ~doc:
            "Warm prepared circuits (compiled netlist + ATPG machine) kept \
             resident, LRU-evicted beyond $(docv).")
  in
  let max_queue =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission bound: requests beyond $(docv) queued are refused \
             with a structured $(b,overloaded) error (exit code 7 at the \
             client).")
  in
  let max_request_bytes =
    Arg.(
      value
      & opt int Scanpower_server.Protocol.max_line_default
      & info [ "max-request-bytes" ] ~docv:"BYTES"
          ~doc:
            "Cap on one request frame (inline netlists included); past it \
             the request is answered with a $(b,validation) error and the \
             connection is dropped.")
  in
  let default_deadline =
    Arg.(
      value & opt float 0.0
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Default per-request deadline applied to requests that carry \
             none; 0 disables.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ]
          ~doc:"Suppress the operational NDJSON log lines on stdout.")
  in
  let snapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"PATH"
          ~doc:
            "Warm-registry snapshot file: restored at startup (a corrupt or \
             missing file is a cold start) and written atomically on the \
             SIGTERM drain and every $(b,--snapshot-every) seconds, so a \
             restarted daemon comes back warm.")
  in
  let snapshot_every =
    Arg.(
      value & opt float 0.0
      & info [ "snapshot-every" ] ~docv:"SECONDS"
          ~doc:"Periodic snapshot interval; 0 snapshots only on drain.")
  in
  let max_heap_mw =
    Arg.(
      value & opt float 0.0
      & info [ "max-heap-mw" ] ~docv:"MEGAWORDS"
          ~doc:
            "Heap budget for the memory-pressure watchdog, in millions of \
             OCaml words (8 MB per megaword on 64-bit). Over budget the \
             daemon first shrinks the warm registry and compacts; if \
             pressure persists it sheds flow/atpg/sweep-point requests \
             with a retryable $(b,degraded) error (exit code 9) while \
             health/stats/validate keep being served. 0 disables.")
  in
  let supervise =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Run the daemon as a monitored child: a crash restarts it (re-\
             binding the socket, restoring the snapshot) under a token-\
             bucket restart budget; budget exhausted exits 4 instead of \
             restart-storming.")
  in
  let restart_budget =
    Arg.(
      value & opt int 5
      & info [ "restart-budget" ] ~docv:"N"
          ~doc:"Supervisor token-bucket capacity: crashes absorbed before \
                giving up.")
  in
  let restart_refill =
    Arg.(
      value & opt float 30.0
      & info [ "restart-refill" ] ~docv:"SECONDS"
          ~doc:"Uptime that earns one restart token back; 0 disables refill.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scan-power daemon: line-delimited JSON requests (flow, \
          atpg, validate, sweep-point, health, stats) over a Unix-domain \
          socket, served from a warm machine registry with LRU eviction, \
          bounded-queue admission control and per-request deadlines. \
          $(b,--supervise) adds crash-only self-healing: a monitored child \
          restarted under a token-bucket budget, coming back warm from the \
          $(b,--snapshot) file. SIGTERM drains in-flight work, writes the \
          final snapshot, emits a final stats line and unlinks the socket.")
    Term.(
      term_result
        (const run $ socket_arg $ registry_capacity $ max_queue
       $ max_request_bytes $ default_deadline $ quiet
       $ snapshot $ snapshot_every $ max_heap_mw $ supervise
       $ restart_budget $ restart_refill $ telemetry_term))

(* ---- client ---- *)

let client_cmd =
  let module P = Scanpower_server.Protocol in
  let module C = Scanpower_server.Client in
  let run socket kind_s spec seed deadline stream isolation repeat retry_for
      tele =
    let* metrics_out = tele in
    let* kind =
      match P.kind_of_string kind_s with
      | Some k -> Ok k
      | None ->
        E.raise_error ~code:E.Usage ~stage:"client" ~token:kind_s
          "unknown request kind (expected flow, atpg, validate, \
           sweep-point, health or stats)"
    in
    (* a .bench path is shipped inline so the daemon never needs our
       filesystem; a known name is resolved server-side *)
    let circuit, bench, name =
      match spec with
      | None -> (None, None, None)
      | Some spec ->
        if List.mem spec Circuits.names then (Some spec, None, None)
        else if Sys.file_exists spec then
          let text = In_channel.with_open_bin spec In_channel.input_all in
          let base = Filename.remove_extension (Filename.basename spec) in
          (None, Some text, Some base)
        else (Some spec, None, None)
    in
    if P.needs_circuit kind && circuit = None && bench = None then
      E.raise_error ~code:E.Usage ~stage:"client"
        (P.kind_to_string kind ^ " needs a circuit name or a .bench path");
    (* the resilient session reconnects and replays through daemon
       restarts (and waits out a daemon still starting) within its
       retry window *)
    let session = C.session ~retry_for_s:retry_for socket in
    Fun.protect
      ~finally:(fun () -> C.close_session session)
      (fun () ->
        let last_error = ref None in
        for i = 1 to repeat do
          let req =
            P.make ?circuit ?bench ?name:(Option.map Fun.id name) ~seed
              ?deadline_s:deadline ~stream
              ~isolation:
                (if isolation = "fork" then P.Fork_isolation
                 else P.Inline_isolation)
              ~id:(Printf.sprintf "cli-%d-%d" (Unix.getpid ()) i)
              kind
          in
          match
            C.call
              ~on_event:(Telemetry.Events.write_json_line stdout)
              session req
          with
          | Ok value -> Telemetry.Events.write_json_line stdout value
          | Error err -> last_error := Some err
        done;
        match !last_error with
        | None -> finish_telemetry metrics_out
        | Some err -> raise (E.Error err))
  in
  let kind_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"KIND"
          ~doc:
            "Request kind: flow, atpg, validate, sweep-point, health or \
             stats.")
  in
  let spec_arg =
    let doc = "Benchmark name (resolved by the daemon) or .bench path \
               (shipped inline)." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"CIRCUIT" ~doc)
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-request deadline; expiry yields the structured \
             $(b,deadline) error (exit code 8).")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Print the daemon's progress events for this request as JSON \
             lines as they arrive.")
  in
  let isolation =
    Arg.(
      value
      & opt (enum [ ("inline", "inline"); ("fork", "fork") ]) "inline"
      & info [ "isolation" ] ~docv:"MODE"
          ~doc:
            "$(b,inline) runs in the daemon (fastest, warms the shared \
             registry); $(b,fork) runs in a crash-isolated worker with the \
             deadline enforced as a hard timeout.")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Send the request $(docv) times sequentially (warm-registry \
             measurements); the exit code reflects the last failure, if \
             any.")
  in
  let retry_for =
    Arg.(
      value & opt float 10.0
      & info [ "retry-for" ] ~docv:"SECONDS"
          ~doc:
            "Total resilience window per request: connect retries while \
             the daemon starts, reconnect + replay on a torn or reset \
             connection (a daemon restarting under \
             supervision), and backoff + re-send on retryable \
             $(b,overloaded)/$(b,degraded) errors. Idempotency keys \
             guarantee a replay never double-executes.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running $(b,scanpower serve) daemon and \
          print the response value as one JSON line. Transport failures \
          are replayed under $(b,--retry-for) with idempotent dedup \
          server-side. Structured daemon errors map to the documented \
          exit codes (7 overloaded, 8 deadline, 9 degraded, ...).")
    Term.(
      term_result
        (const run $ socket_arg $ kind_arg $ spec_arg $ seed_arg $ deadline
       $ stream $ isolation $ repeat $ retry_for $ telemetry_term))

let main_cmd =
  let doc =
    "Simultaneous reduction of dynamic and static power in scan structures \
     (DATE 2005 reproduction)."
  in
  Cmd.group
    (Cmd.info "scanpower" ~version:"1.0.0" ~doc)
    [ list_cmd; stats_cmd; figure2_cmd; observability_cmd; atpg_cmd; power_cmd;
      profile_cmd; paths_cmd; export_cmd; peak_cmd; table1_cmd; validate_cmd;
      sweep_cmd; serve_cmd; client_cmd ]

(* Exit codes (also documented in the README): 0 success, 2 usage,
   3 parse/validation, 4 io/runtime, 5 partial batch, 7 daemon
   overloaded, 8 request deadline expired, 9 daemon degraded under
   memory pressure (6 is retired); cmdliner itself keeps 124 for
   command-line syntax it rejects before we run. *)
let () =
  Runner.Fault_inject.activate_from_env ();
  match Cmd.eval ~catch:false main_cmd with
  | code -> exit code
  | exception E.Error err ->
    prerr_endline ("scanpower: " ^ E.to_string err);
    exit (E.exit_code err.E.code)
  | exception e ->
    let err = E.of_exn ~stage:"cli" e in
    prerr_endline ("scanpower: " ^ E.to_string err);
    exit (E.exit_code err.E.code)
