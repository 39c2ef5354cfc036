(* Paper harness: regenerates every table and figure of the paper and
   runs the ablation studies DESIGN.md calls out. Speed is measured by
   perfbench/, not here.

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
                  (e) .. (i) reordering, glitches, exact probabilities,
                  multiple chains, ATPG engines *)

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

(* SCANPOWER_BENCH_ONLY=<name>[,<name>...] runs the named stages only
   (e.g. "figure2,table1"); unset runs the full sequence. *)
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
  (match json_out with
  | None -> ()
  | Some path ->
    Telemetry.write_metrics path;
    Format.printf "@.per-stage telemetry snapshot written to %s@." path);
  Format.printf "@.done.@."
