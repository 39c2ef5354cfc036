(* Benchmark harness: regenerates every table and figure of the paper
   and runs the ablation studies DESIGN.md calls out, plus bechamel
   micro-benchmarks of the flow's building blocks.

     dune exec bench/main.exe              # everything (several minutes)
     SCANPOWER_BENCH_FAST=1 dune exec bench/main.exe   # small circuits only

   Sections:
     [Figure 2]   calibrated NAND2 leakage table vs the published one
     [Table I]    dynamic (/f) + static scan power, 3 structures,
                  12 circuits, vs the published rows
     [Ablations]  (a) leakage-observability direction on/off
                  (b) AddMUX naive re-STA vs slack test
                  (c) gate input reordering contribution
                  (d) IVC candidate-count sweep
     [Micro]      bechamel timings of the core kernels *)

let fast = Sys.getenv_opt "SCANPOWER_BENCH_FAST" <> None

(* Table I runs through the sweep runner: SCANPOWER_BENCH_JOBS sets
   the worker count (default 4, 1 = in-process sequential) and
   SCANPOWER_BENCH_CACHE the result-cache directory ("off" or "0"
   disables it; default _scanpower_cache). Results are bit-identical
   either way — the runner only changes where and whether the flow
   runs, never what it computes. *)
let bench_jobs =
  match Sys.getenv_opt "SCANPOWER_BENCH_JOBS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 4

let bench_cache () =
  match Sys.getenv_opt "SCANPOWER_BENCH_CACHE" with
  | Some "off" | Some "0" -> None
  | Some dir -> Some (Runner.Cache.create ~dir ())
  | None -> Some (Runner.Cache.create ())

(* SCANPOWER_BENCH_JSON=out.json captures per-stage wall-clock timings
   (every stage runs inside a telemetry span, so the flow's own phase
   tree nests below it) plus all hot-kernel counters as one JSON
   metrics snapshot — the same exporter the CLI's --metrics-out uses. *)
let json_out = Sys.getenv_opt "SCANPOWER_BENCH_JSON"
let () = if json_out <> None then Telemetry.enable ()

let section name = Format.printf "@.=== %s ===@." name

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  section "Figure 2: NAND2 leakage per input state (45 nm, 0.9 V)";
  let cell = Techlib.Cell.Nand 2 in
  Format.printf "state | measured (nA) | paper (nA)@.";
  for s = 0 to 3 do
    Format.printf "  %s  | %13.1f | %10.1f@."
      (Techlib.Leakage_table.string_of_state cell s)
      (Techlib.Leakage_table.leakage_na cell ~state:s)
      Techlib.Leakage_table.paper_nand2_na.(s)
  done;
  Format.printf "raw (uncalibrated) model: ";
  for s = 0 to 3 do
    Format.printf "%s=%.1f "
      (Techlib.Leakage_table.string_of_state cell s)
      (Techlib.Leakage_table.raw_leakage_na cell ~state:s)
  done;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

let table1_circuits =
  if fast then [ "s344"; "s382"; "s444"; "s510" ]
  else
    [ "s344"; "s382"; "s444"; "s510"; "s641"; "s713"; "s1196"; "s1238";
      "s1423"; "s1494"; "s5378"; "s9234" ]

let table1 () =
  section "Table I: scan power, traditional vs input control [8] vs proposed";
  let t0 = Unix.gettimeofday () in
  let points =
    Scanpower.Sweep.points (List.map Circuits.by_name table1_circuits)
  in
  let on_event = function
    | Runner.Finished
        { job; outcome = Runner.Done { from_cache; duration_s; _ } } ->
      Format.printf "%-16s %s@." job.Runner.id
        (if from_cache then "cached"
         else Printf.sprintf "done in %5.1fs" duration_s);
      Format.pp_print_flush Format.std_formatter ()
    | Runner.Finished { job; outcome = Runner.Failed { attempts; last; _ } } ->
      Format.printf "%-16s FAILED after %d attempt(s): %s@." job.Runner.id
        attempts
        (Runner.failure_to_string last)
    | Runner.Attempt_failed { job; attempt; failure; _ } ->
      Format.printf "%-16s attempt %d %s; retrying@." job.Runner.id attempt
        (Runner.failure_to_string failure)
    | Runner.Started _ -> ()
  in
  let report =
    Scanpower.Sweep.run ~jobs:bench_jobs ?cache:(bench_cache ())
      ~capture_telemetry:(bench_jobs > 1) ~on_event points
  in
  List.iter
    (fun (r : Scanpower.Sweep.job_result) ->
      match r.Scanpower.Sweep.comparison with
      | Ok cmp ->
        Format.printf "%-7s %d vectors, %d/%d cells muxed@."
          r.Scanpower.Sweep.circuit cmp.Scanpower.Flow.n_vectors
          cmp.Scanpower.Flow.n_muxable cmp.Scanpower.Flow.n_dffs
      | Error e ->
        Format.printf "%-7s failed: %s@." r.Scanpower.Sweep.circuit e)
    report.Scanpower.Sweep.results;
  let s = report.Scanpower.Sweep.stats in
  Format.printf
    "pool: %d workers, %d computed, %d cache hits, %d retries, %d crashes \
     (%.1fs wall)@."
    bench_jobs s.Runner.computed s.Runner.cache_hits s.Runner.retries
    s.Runner.crashes
    (Unix.gettimeofday () -. t0);
  let rows = Scanpower.Sweep.rows report in
  Format.printf "@.measured:@.";
  Scanpower.Report.pp_table Format.std_formatter rows;
  Format.printf "@.paper:@.";
  Scanpower.Report.pp_table Format.std_formatter
    (List.filter_map Scanpower.Report.paper_row table1_circuits);
  (* shape check: the qualitative claims of the paper are the verdict,
     over every circuit asked for (a failed circuit counts as a loss) *)
  let names_where p =
    List.filter_map
      (fun r -> if p r then Some r.Scanpower.Report.name else None)
      rows
  in
  let static_losers =
    names_where (fun r ->
        not
          (r.Scanpower.Report.prop_static < r.Scanpower.Report.trad_static
          && r.Scanpower.Report.prop_static < r.Scanpower.Report.ic_static))
  in
  let dyn_losers =
    names_where (fun r ->
        not (r.Scanpower.Report.prop_dyn < r.Scanpower.Report.trad_dyn))
  in
  let failed =
    List.filter_map
      (fun (r : Scanpower.Sweep.job_result) ->
        match r.Scanpower.Sweep.comparison with
        | Ok _ -> None
        | Error _ -> Some r.Scanpower.Sweep.circuit)
      report.Scanpower.Sweep.results
  in
  let n = List.length table1_circuits in
  let wins losers = List.length rows - List.length losers in
  Format.printf
    "@.shape: proposed beats both baselines on static power in %d/%d circuits; \
     beats traditional scan on dynamic power in %d/%d.@."
    (wins static_losers) n (wins dyn_losers) n;
  if failed <> [] || static_losers <> [] || dyn_losers <> [] then
    failwith
      (Printf.sprintf
         "Table I verdict failed: circuits failed [%s]; static not below \
          both baselines [%s]; dynamic not below traditional [%s]"
         (String.concat " " failed)
         (String.concat " " static_losers)
         (String.concat " " dyn_losers))

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_circuits =
  if fast then [ "s344"; "s382" ] else [ "s344"; "s382"; "s444"; "s1196" ]

(* Measure scan static power for the proposed structure built with a
   given pattern-search direction. *)
let proposed_static ~direction ~reorder name =
  let c = Techmap.Mapper.map (Circuits.by_name name) in
  let chain = Scan.Scan_chain.natural c in
  let vectors = Atpg.Pattern_gen.random_vectors ~seed:3 ~count:50 c in
  let mux = Scanpower.Mux_insertion.select c in
  let cp =
    Scanpower.Controlled_pattern.find ~direction c
      ~muxable:mux.Scanpower.Mux_insertion.muxable
  in
  let filled =
    Scanpower.Ivc.fill ~seed:11 c ~values:cp.Scanpower.Controlled_pattern.values
      ~controlled:cp.Scanpower.Controlled_pattern.controlled
  in
  let concrete id =
    match filled.Scanpower.Ivc.values.(id) with
    | Netlist.Logic.One -> true
    | Netlist.Logic.Zero | Netlist.Logic.X -> false
  in
  let policy =
    {
      Scan.Scan_sim.pi_during_shift =
        Some (Array.map concrete (Netlist.Circuit.inputs c));
      forced_pseudo =
        List.map (fun id -> (id, concrete id)) mux.Scanpower.Mux_insertion.muxable;
      hold_previous_capture = false;
    }
  in
  let c, permuted =
    if reorder then begin
      let c' = Netlist.Circuit.copy c in
      let ro =
        Scanpower.Input_reorder.optimize c' ~values:filled.Scanpower.Ivc.values
      in
      (c', ro.Scanpower.Input_reorder.gates_reordered)
    end
    else (c, 0)
  in
  ((Scan.Scan_sim.measure c chain policy ~vectors).Scan.Scan_sim.avg_static_uw,
   permuted)

(* (a) does directing the search by leakage observability buy leakage? *)
let ablation_direction () =
  section
    "Ablation (a): leakage-observability direction in FindControlledInputPattern";
  Format.printf "%-8s | %12s | %12s | %s@." "circuit" "directed uW"
    "undirected uW" "gain";
  List.iter
    (fun name ->
      let c = Techmap.Mapper.map (Circuits.by_name name) in
      let directed, _ =
        proposed_static
          ~direction:
            (Scanpower.Justify.Leakage_directed (Power.Observability.compute c))
          ~reorder:false name
      in
      let undirected, _ =
        proposed_static ~direction:Scanpower.Justify.Structural ~reorder:false
          name
      in
      Format.printf "%-8s | %12.2f | %12.2f | %+.2f%%@." name directed
        undirected
        (Scanpower.Flow.improvement undirected directed))
    ablation_circuits

(* (b) AddMUX: one timing analysis + slack test vs per-candidate re-STA *)
let ablation_addmux () =
  section "Ablation (b): AddMUX slack test vs naive re-analysis";
  List.iter
    (fun name ->
      let c = Techmap.Mapper.map (Circuits.by_name name) in
      let time f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0)
      in
      let naive, t_naive =
        time (fun () ->
            Scanpower.Mux_insertion.select
              ~strategy:Scanpower.Mux_insertion.Naive c)
      in
      let slack, t_slack =
        time (fun () ->
            Scanpower.Mux_insertion.select
              ~strategy:Scanpower.Mux_insertion.Slack_based c)
      in
      let agree =
        List.sort compare naive.Scanpower.Mux_insertion.muxable
        = List.sort compare slack.Scanpower.Mux_insertion.muxable
      in
      Format.printf "%-8s naive %.4fs, slack %.4fs (%.0fx), identical: %b@."
        name t_naive t_slack
        (t_naive /. Float.max 1e-9 t_slack)
        agree)
    ablation_circuits

(* (c) what does gate input reordering contribute on top of the vector? *)
let ablation_reorder () =
  section "Ablation (c): gate input reordering contribution";
  List.iter
    (fun name ->
      let c = Techmap.Mapper.map (Circuits.by_name name) in
      let direction =
        Scanpower.Justify.Leakage_directed (Power.Observability.compute c)
      in
      let without, _ = proposed_static ~direction ~reorder:false name in
      let with_, permuted = proposed_static ~direction ~reorder:true name in
      Format.printf
        "%-8s without %.2f uW, with %.2f uW (%d gates permuted): %+.2f%%@."
        name without with_ permuted
        (Scanpower.Flow.improvement without with_))
    ablation_circuits

(* (d) IVC sample count: diminishing returns of random completions *)
let ablation_ivc () =
  section "Ablation (d): IVC candidate-count sweep (expected scan leakage, uW)";
  let name = "s344" in
  let c = Techmap.Mapper.map (Circuits.by_name name) in
  let mux = Scanpower.Mux_insertion.select c in
  let cp =
    Scanpower.Controlled_pattern.find
      ~direction:
        (Scanpower.Justify.Leakage_directed (Power.Observability.compute c))
      c ~muxable:mux.Scanpower.Mux_insertion.muxable
  in
  Format.printf "%s:" name;
  List.iter
    (fun candidates ->
      let filled =
        Scanpower.Ivc.fill ~candidates ~seed:11 c
          ~values:cp.Scanpower.Controlled_pattern.values
          ~controlled:cp.Scanpower.Controlled_pattern.controlled
      in
      Format.printf " %d->%.3f" candidates
        filled.Scanpower.Ivc.expected_leakage_uw)
    [ 1; 4; 8; 16; 32; 64; 128 ];
  Format.printf "@."

(* (e) the paper's closing remark: vector and scan-cell reordering give
   further improvements on top of the proposed structure *)
let ablation_reordering_ext () =
  section
    "Ablation (e): test-vector / scan-cell reordering on top (paper Section 5)";
  List.iter
    (fun name ->
      let c = Techmap.Mapper.map (Circuits.by_name name) in
      let vectors = Atpg.Pattern_gen.random_vectors ~seed:3 ~count:50 c in
      let natural = Scan.Scan_chain.natural c in
      let base =
        Scan.Scan_sim.measure c natural Scan.Scan_sim.traditional ~vectors
      in
      let v' = Scanpower.Reordering.reorder_vectors vectors in
      let with_vectors =
        Scan.Scan_sim.measure c natural Scan.Scan_sim.traditional ~vectors:v'
      in
      let chain' = Scanpower.Reordering.reorder_chain c vectors in
      let with_both =
        Scan.Scan_sim.measure c chain' Scan.Scan_sim.traditional ~vectors:v'
      in
      let dyn (m : Scan.Scan_sim.result) =
        m.Scan.Scan_sim.dynamic.Power.Switching.dynamic_per_hz_uw
      in
      Format.printf
        "%-8s dyn/f: natural %.3e | +vector reorder %.3e (%+.1f%%) | +chain reorder %.3e (%+.1f%%)@."
        name (dyn base) (dyn with_vectors)
        (Scanpower.Flow.improvement (dyn base) (dyn with_vectors))
        (dyn with_both)
        (Scanpower.Flow.improvement (dyn base) (dyn with_both)))
    ablation_circuits

(* (f) glitch factor: how much does the zero-delay Eq. (1) figure
   under-count once gate delays and hazards are modelled? *)
let ablation_glitch () =
  section "Ablation (f): transport-delay glitch factor on scan shift activity";
  List.iter
    (fun name ->
      let c = Techmap.Mapper.map (Circuits.by_name name) in
      let timing = Sta.analyze c in
      let gsim = Sta.Glitch_sim.create timing in
      let esim = Sim.Event_sim.create c in
      Sta.Glitch_sim.init gsim (fun _ -> false);
      Sim.Event_sim.init esim (fun _ -> false);
      let rng = Util.Rng.create 23 in
      let current = Array.make (Netlist.Circuit.node_count c) false in
      for _ = 1 to 200 do
        let changes = ref [] in
        Array.iter
          (fun id ->
            if Util.Rng.bool rng then begin
              current.(id) <- not current.(id);
              changes := (id, current.(id)) :: !changes
            end)
          (Netlist.Circuit.sources c);
        ignore (Sta.Glitch_sim.apply gsim !changes);
        ignore (Sim.Event_sim.set_sources esim !changes)
      done;
      let glitchy = Sta.Glitch_sim.total_transitions gsim in
      let settled = Sim.Event_sim.total_toggles esim in
      Format.printf "%-8s settled %7d | with glitches %7d | factor %.2fx@."
        name settled glitchy
        (float_of_int glitchy /. float_of_int (max 1 settled)))
    ablation_circuits

(* (g) exact (BDD) vs analytic signal probabilities: the error of the
   independence assumption inside the leakage-observability engine *)
let ablation_exact_probabilities () =
  section "Ablation (g): independence assumption vs exact BDD probabilities";
  List.iter
    (fun name ->
      let c = Techmap.Mapper.map (Circuits.by_name name) in
      match Bdd.Circuit_bdd.build ~node_budget:3_000_000 c with
      | exception Bdd.Circuit_bdd.Too_large ->
        Format.printf "%-8s BDD blow-up (skipped)@." name
      | sym ->
        let exact = Bdd.Circuit_bdd.probabilities sym () in
        let approx = Power.Observability.compute c in
        let worst = ref 0.0 and sum = ref 0.0 and n = ref 0 in
        Array.iter
          (fun nd ->
            if Netlist.Gate.is_logic nd.Netlist.Circuit.kind then begin
              let err =
                Float.abs
                  (exact.(nd.Netlist.Circuit.id)
                  -. Power.Observability.probability approx nd.Netlist.Circuit.id)
              in
              worst := Float.max !worst err;
              sum := !sum +. err;
              incr n
            end)
          (Netlist.Circuit.nodes c);
        let exact_leak = Bdd.Circuit_bdd.exact_expected_leakage_uw sym () in
        let p_one =
          Array.init (Netlist.Circuit.node_count c) (fun id ->
              Power.Observability.probability approx id)
        in
        let approx_leak = Power.Leakage.expected_total_leakage_uw c ~p_one in
        Format.printf
          "%-8s prob error: mean %.4f worst %.4f | E[leakage]: exact %.2f vs analytic %.2f uW (%.1f%% off)@."
          name
          (!sum /. float_of_int (max 1 !n))
          !worst exact_leak approx_leak
          (100.0 *. Float.abs (exact_leak -. approx_leak) /. exact_leak))
    (if fast then [ "s27"; "s344" ] else [ "s27"; "s344"; "s382"; "s444" ])

(* (h) multiple scan chains: shift time vs per-cycle activity *)
let ablation_multi_chain () =
  section "Ablation (h): multi-chain trade-off (traditional scan, s382)";
  let c = Techmap.Mapper.map (Circuits.by_name "s382") in
  let vectors = Atpg.Pattern_gen.random_vectors ~seed:3 ~count:50 c in
  List.iter
    (fun k ->
      let mc = Scan.Multi_chain.partition c ~chains:k in
      let m = Scan.Multi_chain.measure mc ~policy:Scan.Scan_sim.traditional ~vectors in
      Format.printf
        "%2d chains: %5d cycles, %7d toggles, dyn/f %.3e uW/Hz, peak static %.2f uW@."
        k m.Scan.Multi_chain.cycles m.Scan.Multi_chain.total_toggles
        m.Scan.Multi_chain.dynamic_per_hz_uw m.Scan.Multi_chain.peak_static_uw)
    [ 1; 2; 4; 7; 21 ]

(* (i) ATPG engines: plain PODEM vs SCOAP-guided PODEM vs D-algorithm *)
let ablation_atpg_engines () =
  section "Ablation (i): ATPG engines on the collapsed fault list";
  List.iter
    (fun name ->
      let c = Techmap.Mapper.map (Circuits.by_name name) in
      let faults = Atpg.Fault.collapsed_faults c in
      let guide = Atpg.Scoap.compute c in
      let tally run =
        let t0 = Unix.gettimeofday () in
        let t = ref 0 and u = ref 0 and a = ref 0 in
        List.iter
          (fun f ->
            match run f with
            | `T -> incr t
            | `U -> incr u
            | `A -> incr a)
          faults;
        (!t, !u, !a, Unix.gettimeofday () -. t0)
      in
      let podem_tag = function
        | Atpg.Podem.Test _ -> `T
        | Atpg.Podem.Untestable -> `U
        | Atpg.Podem.Aborted -> `A
      in
      let dalg_tag = function
        | Atpg.D_algorithm.Test _ -> `T
        | Atpg.D_algorithm.Untestable -> `U
        | Atpg.D_algorithm.Aborted -> `A
      in
      let show tag (t, u, a, secs) =
        Format.printf "  %-14s test %4d | untestable %3d | aborted %3d | %.2fs@."
          tag t u a secs
      in
      Format.printf "%s (%d faults):@." name (List.length faults);
      let plain = Atpg.Podem.make c and guided = Atpg.Podem.make ~guide c in
      show "podem" (tally (fun f -> podem_tag (Atpg.Podem.generate plain f)));
      show "podem+scoap"
        (tally (fun f -> podem_tag (Atpg.Podem.generate guided f)));
      show "d-algorithm"
        (tally (fun f -> dalg_tag (Atpg.D_algorithm.generate c f))))
    (if fast then [ "s344" ] else [ "s344"; "s382" ])

(* ------------------------------------------------------------------ *)
(* Kernel micro-bench: compiled form + packed scan engine              *)
(* ------------------------------------------------------------------ *)

(* Wall-clock per kernel on the Table I shift loop: circuit compile,
   packed 64-lane shift simulation, scalar event-driven reference, and
   64-way fault simulation with both engines (critical path tracing
   and the full-cone reference). Cross-checks that both scan engines
   return identical toggle counts and both fault-sim engines identical
   per-fault detections, and writes the numbers (plus packed/scalar
   and cpt/cone speedups and stem-event throughput) to
   BENCH_kernels.json. *)

let kernel_circuits =
  if fast then [ "s344"; "s1196" ] else [ "s344"; "s1196"; "s5378"; "s9234" ]

let kernels_json = ref []

let kernels () =
  section "Kernels: compiled circuit + packed scan shift vs scalar reference";
  (* best-of-[reps] wall clock after one untimed warmup run, so cold
     caches and lazy initialisation don't pollute the comparison *)
  let time ?(reps = 1) f =
    let r = ref (f ()) in
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      r := f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    (!r, !best)
  in
  let shift_reps = if fast then 3 else 1 in
  List.iter
    (fun name ->
      let c = Circuits.by_name name (* generated pre-mapped *) in
      let chain = Scan.Scan_chain.natural c in
      let vectors = Atpg.Pattern_gen.random_vectors ~seed:7 ~count:20 c in
      let n_gates = Netlist.Circuit.node_count c in
      let _, compile_s =
        time ~reps:10 (fun () -> Netlist.Compiled.of_circuit c)
      in
      let packed, packed_s =
        time ~reps:shift_reps (fun () ->
            Scan.Scan_sim.measure ~engine:Scan.Scan_sim.Packed c chain
              Scan.Scan_sim.traditional ~vectors)
      in
      let scalar, scalar_s =
        time ~reps:shift_reps (fun () ->
            Scan.Scan_sim.measure ~engine:Scan.Scan_sim.Scalar c chain
              Scan.Scan_sim.traditional ~vectors)
      in
      (* the engines must agree bit for bit on the activity they count *)
      if packed.Scan.Scan_sim.toggles <> scalar.Scan.Scan_sim.toggles then
        failwith (name ^ ": packed/scalar per-node toggle mismatch");
      if
        packed.Scan.Scan_sim.per_cycle_toggles
        <> scalar.Scan.Scan_sim.per_cycle_toggles
      then failwith (name ^ ": packed/scalar per-cycle toggle mismatch");
      let faults = Atpg.Fault.collapsed_faults c in
      (* both fault-sim engines on persistent machines: the cone
         reference and the critical-path-tracing engine must agree
         fault for fault, and the stem-event throughput is counted via
         telemetry (enabled just for the timed cpt run) *)
      let m_cone = Atpg.Fault_simulation.make ~engine:Atpg.Fault_simulation.Cone c in
      let m_cpt = Atpg.Fault_simulation.make ~engine:Atpg.Fault_simulation.Cpt c in
      let (cone_detected, _), fault_cone_s =
        time (fun () ->
            Atpg.Fault_simulation.split ~machine:m_cone c ~faults ~vectors)
      in
      let was_enabled = Telemetry.enabled () in
      Telemetry.enable ();
      let events0 =
        match Telemetry.Counter.find "atpg.fault_sim.stem_events" with
        | Some v -> v
        | None -> 0
      in
      (* the per-pattern latency histogram accumulates across circuits;
         reset so the percentiles below describe this circuit's timed
         run only *)
      let h_pattern = Telemetry.Histogram.make "atpg.fault_sim.pattern_s" in
      Telemetry.Histogram.reset h_pattern;
      let (cpt_detected, _), fault_cpt_s =
        time (fun () ->
            Atpg.Fault_simulation.split ~machine:m_cpt c ~faults ~vectors)
      in
      let events1 =
        match Telemetry.Counter.find "atpg.fault_sim.stem_events" with
        | Some v -> v
        | None -> 0
      in
      let pattern_p50 = Telemetry.Histogram.percentile h_pattern 0.5 in
      let pattern_p99 = Telemetry.Histogram.percentile h_pattern 0.99 in
      if not was_enabled then Telemetry.disable ();
      if cone_detected <> cpt_detected then
        failwith (name ^ ": cone/cpt fault-sim detection mismatch");
      let detected = cpt_detected in
      let fault_speedup = fault_cone_s /. Float.max 1e-9 fault_cpt_s in
      let fault_events_s =
        float_of_int (events1 - events0) /. Float.max 1e-9 fault_cpt_s
      in
      let speedup = scalar_s /. Float.max 1e-9 packed_s in
      Format.printf
        "%-8s compile %7.4fs | shift sim: packed %8.4fs vs scalar %8.4fs \
         (%5.1fx) | fault sim: cpt %7.3fs vs cone %7.3fs (%5.1fx, %.2e \
         ev/s, %d/%d detected)@."
        name compile_s packed_s scalar_s speedup fault_cpt_s fault_cone_s fault_speedup fault_events_s
        (List.length detected) (List.length faults);
      kernels_json :=
        ( name,
          Telemetry.Json.Obj
            [
              ("nodes", Telemetry.Json.Int n_gates);
              ("flip_flops", Telemetry.Json.Int (Scan.Scan_chain.length chain));
              ("vectors", Telemetry.Json.Int (List.length vectors));
              ("cycles", Telemetry.Json.Int packed.Scan.Scan_sim.cycles);
              ( "total_toggles",
                Telemetry.Json.Int packed.Scan.Scan_sim.total_toggles );
              ("compile_s", Telemetry.Json.Float compile_s);
              ("packed_shift_s", Telemetry.Json.Float packed_s);
              ("scalar_shift_s", Telemetry.Json.Float scalar_s);
              ("packed_speedup", Telemetry.Json.Float speedup);
              ("fault_sim_s", Telemetry.Json.Float fault_cpt_s);
              ("fault_sim_cone_s", Telemetry.Json.Float fault_cone_s);
              ("fault_sim_cpt_s", Telemetry.Json.Float fault_cpt_s);
              ("fault_sim_speedup", Telemetry.Json.Float fault_speedup);
              ("fault_sim_events_s", Telemetry.Json.Float fault_events_s);
              ("fault_sim_pattern_p50_s", Telemetry.Json.Float pattern_p50);
              ("fault_sim_pattern_p99_s", Telemetry.Json.Float pattern_p99);
              ("faults", Telemetry.Json.Int (List.length faults));
              ("faults_detected", Telemetry.Json.Int (List.length detected));
            ] )
        :: !kernels_json)
    kernel_circuits;
  (* per-fault detection equality over the rest of Table I too, not
     just the timed subset (untimed, so kept out of the JSON) *)
  List.iter
    (fun name ->
      let c = Circuits.by_name name in
      let vectors = Atpg.Pattern_gen.random_vectors ~seed:7 ~count:20 c in
      let faults = Atpg.Fault.collapsed_faults c in
      let check engine =
        fst
          (Atpg.Fault_simulation.split
             ~machine:(Atpg.Fault_simulation.make ~engine c)
             c ~faults ~vectors)
      in
      let cone = check Atpg.Fault_simulation.Cone in
      let cpt = check Atpg.Fault_simulation.Cpt in
      if cone <> cpt then
        failwith (name ^ ": cone/cpt fault-sim detection mismatch");
      Format.printf "%-8s engines agree (%d/%d detected)@." name
        (List.length cpt) (List.length faults))
    (List.filter (fun n -> not (List.mem n kernel_circuits)) table1_circuits);
  (* scale tier (non-fast): seeded generated profiles an order of
     magnitude past Table I, timing generation, compilation and CPT
     fault simulation over 256 vectors *)
  if not fast then begin
    section "Kernels: scale tier (seeded 50k/100k-gate profiles)";
    List.iter
      (fun prof ->
        let module Fs = Atpg.Fault_simulation in
        let name = prof.Circuits.name in
        let c, generate_s = time (fun () -> Circuits.generate prof) in
        let _, compile_s = time (fun () -> Netlist.Compiled.of_circuit c) in
        let vectors =
          Atpg.Pattern_gen.random_vectors ~seed:7 ~count:256 c
        in
        let faults = Atpg.Fault.collapsed_faults c in
        let m_cpt = Fs.make c in
        let (cpt_det, _), cpt_s =
          time (fun () -> Fs.split ~machine:m_cpt c ~faults ~vectors)
        in
        Format.printf
          "%-8s %d nodes, %d faults, %d vectors | generate %6.2fs compile \
           %6.2fs | cpt %7.3fs | %d detected@."
          name
          (Netlist.Circuit.node_count c)
          (List.length faults) (List.length vectors) generate_s compile_s
          cpt_s (List.length cpt_det);
        kernels_json :=
          ( name,
            Telemetry.Json.Obj
              [
                ("nodes", Telemetry.Json.Int (Netlist.Circuit.node_count c));
                ( "flip_flops",
                  Telemetry.Json.Int
                    (Array.length (Netlist.Circuit.dffs c)) );
                ("vectors", Telemetry.Json.Int (List.length vectors));
                ("faults", Telemetry.Json.Int (List.length faults));
                ( "faults_detected",
                  Telemetry.Json.Int (List.length cpt_det) );
                ("generate_s", Telemetry.Json.Float generate_s);
                ("compile_s", Telemetry.Json.Float compile_s);
                ("fault_sim_cpt_wide_s", Telemetry.Json.Float cpt_s);
              ] )
          :: !kernels_json)
      Circuits.scale_profiles
  end;
  Format.printf "kernel timings collected for BENCH_kernels.json@."

(* ------------------------------------------------------------------ *)
(* Serve: warm machine-registry latency over the daemon socket         *)
(* ------------------------------------------------------------------ *)

(* The daemon's reason to exist is amortisation: the first flow request
   for a circuit pays the full prepare (ATPG + compile), every repeat
   only re-evaluates against the resident machine. Measured end-to-end
   through the real socket + client + JSON stack, so protocol overhead
   counts against the win. The warm tail must come in at or under 20%
   of the cold request, and [serve_warm_speedup] is gated as a rate by
   bench-diff so the amortisation cannot silently rot. *)

let serve_bench () =
  section "Serve: warm machine-registry latency over the daemon socket";
  let module D = Scanpower_server.Daemon in
  let module C = Scanpower_server.Client in
  let module P = Scanpower_server.Protocol in
  let module J = Telemetry.Json in
  (* s1196 in both modes: this stage pins registry *amortisation* —
     warm requests must elide the prepare — which is only a meaningful
     contract where prepare dominates the request. On an
     eval-dominated circuit (s5378: ~5s of measurement per request vs
     ~14s of prepare) the warm floor is the measurement itself and the
     20%-of-cold assertion below is structurally unsatisfiable. *)
  let circuit = "s1196" in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "scanpower-bench-%d.sock" (Unix.getpid ()))
  in
  let config = { D.default_config with D.socket; log = None } in
  flush stdout;
  flush stderr;
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try ignore (D.run ~config ()) with _ -> ());
    Unix._exit 0
  end;
  let stop () =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  Fun.protect ~finally:stop (fun () ->
      let client = C.connect ~retry_for_s:10.0 socket in
      Fun.protect
        ~finally:(fun () -> C.close client)
        (fun () ->
          let rpc req =
            let t0 = Unix.gettimeofday () in
            match C.rpc client req with
            | Ok v -> (v, Unix.gettimeofday () -. t0)
            | Error e ->
              failwith
                ("serve bench request failed: " ^ Scanpower_errors.to_string e)
          in
          let flow i =
            rpc
              (P.make
                 ~id:(Printf.sprintf "bench-%d" i)
                 ~circuit ~seed:7 P.Flow)
          in
          let warm_reps = 12 in
          let v0, cold_s = flow 0 in
          (match J.member "registry_hit" v0 with
          | Some (J.Bool false) -> ()
          | _ -> failwith "serve bench: first request must miss the registry");
          let warm = List.init warm_reps (fun i -> snd (flow (i + 1))) in
          let sorted = List.sort compare warm in
          let warm_p50 = List.nth sorted (warm_reps / 2) in
          let warm_p99 = List.nth sorted (warm_reps - 1) in
          let stats, _ = rpc (P.make ~id:"bench-stats" P.Stats) in
          let hits =
            match J.member "registry" stats with
            | Some reg -> (
              match J.member "hits" reg with Some (J.Int n) -> n | _ -> -1)
            | None -> -1
          in
          if hits <> warm_reps then
            failwith
              (Printf.sprintf
                 "serve bench: expected %d registry hits, daemon reports %d"
                 warm_reps hits);
          let speedup = cold_s /. Float.max 1e-9 warm_p99 in
          Format.printf
            "%-8s cold %.4fs | warm p50 %.4fs p99 %.4fs (%5.1fx) | %d/%d \
             registry hits@."
            circuit cold_s warm_p50 warm_p99 speedup hits warm_reps;
          (* the acceptance bar: amortisation must actually amortise *)
          if warm_p99 > 0.2 *. cold_s then
            failwith
              (Printf.sprintf
                 "serve bench: warm p99 %.4fs exceeds 20%% of cold %.4fs"
                 warm_p99 cold_s);
          kernels_json :=
            ( "serve",
              (* numbers only: bench-diff refuses string metrics; the
                 benched circuit differs between fast and full mode,
                 which the top-level [fast] flag already records *)
              J.Obj
                [
                  ("requests", J.Int (warm_reps + 1));
                  ("registry_hits", J.Int hits);
                  ("serve_cold_s", J.Float cold_s);
                  ("serve_warm_p50_s", J.Float warm_p50);
                  ("serve_warm_p99_s", J.Float warm_p99);
                  ("serve_warm_speedup", J.Float speedup);
                ] )
            :: !kernels_json))

(* ------------------------------------------------------------------ *)
(* Serve recovery: crash mid-request, restart warm, replay             *)
(* ------------------------------------------------------------------ *)

(* The self-healing claim, measured: a supervised daemon is SIGKILLed
   mid-request, the supervisor restarts it, the restarted generation
   restores the registry snapshot, and the resilient client replays.
   [serve_recovery_s] is the client-observed time from firing the
   doomed request to its first successful answer — crash detection +
   restart + snapshot restore + replay, end to end — and the replay
   must be a registry hit (a cold re-prepare would hide behind a
   correct answer and rot the snapshot path silently). *)

let serve_recovery_bench () =
  section "Serve recovery: crash mid-request, warm restart, replay";
  let module D = Scanpower_server.Daemon in
  let module S = Scanpower_server.Supervisor in
  let module C = Scanpower_server.Client in
  let module P = Scanpower_server.Protocol in
  let module FI = Runner.Fault_inject in
  let module J = Telemetry.Json in
  let circuit = "s1196" in
  (* deterministic chaos: find a seed where generation 1 dies on the
     doomed id and every other (id, generation) we use is spared *)
  let seed =
    let ok seed =
      let spec = { FI.seed; rates = [ (FI.Worker_kill, 0.5) ] } in
      FI.with_spec (Some spec) (fun () ->
          FI.fires FI.Worker_kill ~key:"kill-me#gen1"
          && List.for_all
               (fun key -> not (FI.fires FI.Worker_kill ~key))
               [ "warm#gen1"; "kill-me#gen2"; "st#gen2" ])
    in
    let rec go s = if ok s then s else go (s + 1) in
    go 0
  in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "scanpower-bench-rec-%d.sock" (Unix.getpid ()))
  in
  let snap =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "scanpower-bench-rec-%d.snap" (Unix.getpid ()))
  in
  let daemon =
    {
      D.default_config with
      D.socket;
      log = None;
      snapshot_path = Some snap;
      snapshot_every_s = 0.05;
    }
  in
  flush stdout;
  flush stderr;
  let pid = Unix.fork () in
  if pid = 0 then begin
    FI.set (Some { FI.seed; rates = [ (FI.Worker_kill, 0.5) ] });
    (try
       S.run
         ~config:{ S.daemon; restart_budget = 5; restart_refill_s = 30.0 }
         ()
     with _ -> ());
    Unix._exit 0
  end;
  let stop () =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    if Sys.file_exists snap then Sys.remove snap
  in
  Fun.protect ~finally:stop (fun () ->
      let session = C.session ~retry_for_s:60.0 socket in
      Fun.protect
        ~finally:(fun () -> C.close_session session)
        (fun () ->
          let call req =
            match C.call session req with
            | Ok v -> v
            | Error e ->
              failwith
                ("serve recovery request failed: "
                ^ Scanpower_errors.to_string e)
          in
          ignore (call (P.make ~id:"warm" ~circuit ~seed:7 P.Flow));
          (* let a snapshot tick capture the warm entry *)
          Unix.sleepf 0.6;
          let t0 = Unix.gettimeofday () in
          let v = call (P.make ~id:"kill-me" ~circuit ~seed:7 P.Flow) in
          let recovery_s = Unix.gettimeofday () -. t0 in
          let warm_hit = J.member "registry_hit" v = Some (J.Bool true) in
          let stats = call (P.make ~id:"st" P.Stats) in
          let int_field obj k =
            match J.member k obj with Some (J.Int n) -> n | _ -> -1
          in
          let generation = int_field stats "generation" in
          let warm_restored = int_field stats "warm_restored" in
          Format.printf
            "%-8s recovery %.4fs | generation %d | %d restored | replay %s@."
            circuit recovery_s generation warm_restored
            (if warm_hit then "warm" else "COLD");
          if C.session_replays session < 1 then
            failwith "serve recovery: the client never replayed";
          if generation <> 2 then
            failwith
              (Printf.sprintf
                 "serve recovery: expected generation 2, daemon reports %d"
                 generation);
          if warm_restored < 1 then
            failwith "serve recovery: restarted daemon restored nothing";
          if not warm_hit then
            failwith
              "serve recovery: replay re-prepared instead of hitting the \
               restored registry";
          kernels_json :=
            ( "serve_recovery",
              J.Obj
                [
                  ("serve_recovery_s", J.Float recovery_s);
                  ("recovery_generation", J.Int generation);
                  ("recovery_warm_restored", J.Int warm_restored);
                  ("recovery_warm_hit", J.Int (if warm_hit then 1 else 0));
                  ("client_replays", J.Int (C.session_replays session));
                ] )
            :: !kernels_json))

let write_bench_json () =
  if !kernels_json <> [] then begin
    let doc =
      Telemetry.Json.Obj
        [
          ("schema", Telemetry.Json.String "scanpower.bench_kernels/4");
          ("fast", Telemetry.Json.Bool fast);
          ("circuits", Telemetry.Json.Obj (List.rev !kernels_json));
        ]
    in
    let oc = open_out "BENCH_kernels.json" in
    output_string oc (Telemetry.Json.to_string doc);
    output_string oc "\n";
    close_out oc;
    Format.printf "kernel timings written to BENCH_kernels.json@."
  end

(* ------------------------------------------------------------------ *)
(* bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let s27 = Techmap.Mapper.map (Circuits.s27 ()) in
  let s344 = Circuits.by_name "s344" (* generated pre-mapped *) in
  let s344_timing = Sta.analyze s344 in
  let s27_vectors = Atpg.Pattern_gen.random_vectors ~seed:1 ~count:20 s27 in
  let s27_chain = Scan.Scan_chain.natural s27 in
  let some_gate =
    let nodes = Netlist.Circuit.nodes s344 in
    let rec pick i =
      if Netlist.Gate.is_logic nodes.(i).Netlist.Circuit.kind then i
      else pick (i + 1)
    in
    pick (Netlist.Circuit.node_count s344 / 2)
  in
  let fault =
    { Atpg.Fault.site = Atpg.Fault.Output_line some_gate; stuck = true }
  in
  let podem344 = Atpg.Podem.make s344 in
  let obs344 = Power.Observability.compute s344 in
  let tests =
    [
      (* Table I building blocks *)
      Test.make ~name:"table1/scan-sim-s27"
        (Staged.stage (fun () ->
             Scan.Scan_sim.measure s27 s27_chain Scan.Scan_sim.traditional
               ~vectors:s27_vectors));
      Test.make ~name:"table1/podem-one-fault-s344"
        (Staged.stage (fun () -> Atpg.Podem.generate podem344 fault));
      Test.make ~name:"table1/controlled-pattern-s344"
        (Staged.stage (fun () ->
             Scanpower.Controlled_pattern.find
               ~direction:(Scanpower.Justify.Leakage_directed obs344)
               s344
               ~muxable:(Array.to_list (Netlist.Circuit.dffs s344))));
      (* Figure 2 building block *)
      Test.make ~name:"figure2/leakage-tables"
        (Staged.stage (fun () ->
             List.map
               (fun cell ->
                 Techlib.Leakage_table.leakage_na cell
                   ~state:(Techlib.Leakage_table.n_states cell - 1))
               Techlib.Cell.all));
      (* ablation (b) kernels *)
      Test.make ~name:"addmux/naive-s344"
        (Staged.stage (fun () ->
             Scanpower.Mux_insertion.select
               ~strategy:Scanpower.Mux_insertion.Naive s344));
      Test.make ~name:"addmux/slack-s344"
        (Staged.stage (fun () ->
             Scanpower.Mux_insertion.select
               ~strategy:Scanpower.Mux_insertion.Slack_based s344));
      Test.make ~name:"substrate/sta-s344"
        (Staged.stage (fun () -> Sta.analyze s344));
      Test.make ~name:"substrate/observability-s344"
        (Staged.stage (fun () -> Power.Observability.compute s344));
      Test.make ~name:"substrate/slack-query"
        (Staged.stage (fun () ->
             Sta.fits_without_slowdown s344_timing
               ~source:(Netlist.Circuit.dffs s344).(0)
               ~penalty:24.0));
    ]
  in
  let grouped = Test.make_grouped ~name:"scanpower" ~fmt:"%s %s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some [ x ] -> x
          | Some _ | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  let print_row (name, ns) =
    if ns > 1e6 then Format.printf "  %-38s %10.3f ms/run@." name (ns /. 1e6)
    else Format.printf "  %-38s %10.1f ns/run@." name ns
  in
  List.iter print_row rows

(* SCANPOWER_BENCH_ONLY=<name>[,<name>...] runs the named stages only
   (e.g. the CI bench steps run "kernels,serve"); unset runs the full
   sequence. *)
let only =
  match Sys.getenv_opt "SCANPOWER_BENCH_ONLY" with
  | None -> None
  | Some s -> (
    match
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun x -> x <> "")
    with
    | [] -> None
    | names -> Some names)

let stage name f =
  match only with
  | Some names when not (List.mem name names) -> ()
  | _ -> Telemetry.Span.with_ ~name:("bench." ^ name) f

let () =
  Format.printf "scanpower bench harness%s@."
    (if fast then " (fast mode: small circuits only)" else "");
  stage "figure2" figure2;
  stage "table1" table1;
  stage "ablation_direction" ablation_direction;
  stage "ablation_addmux" ablation_addmux;
  stage "ablation_reorder" ablation_reorder;
  stage "ablation_ivc" ablation_ivc;
  stage "ablation_reordering_ext" ablation_reordering_ext;
  stage "ablation_glitch" ablation_glitch;
  stage "ablation_exact_probabilities" ablation_exact_probabilities;
  stage "ablation_multi_chain" ablation_multi_chain;
  stage "ablation_atpg_engines" ablation_atpg_engines;
  stage "serve" serve_bench;
  stage "serve_recovery" serve_recovery_bench;
  stage "kernels" kernels;
  stage "micro" micro;
  write_bench_json ();
  (match json_out with
  | None -> ()
  | Some path ->
    Telemetry.write_metrics path;
    Format.printf "@.per-stage telemetry snapshot written to %s@." path);
  Format.printf "@.done.@."
