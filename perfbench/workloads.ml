(* flow-cold and evaluate-scan: in-process workloads over [Flow]. *)

open Netlist
module Flow = Scanpower.Flow

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* VmHWM, the peak resident set, of a process; 0 when /proc is absent. *)
let peak_rss_mb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Set-up times, per set-up, at reference speed. *)
type setup = { setup_s : float; generate_s : float; validate_s : float }

(* One set-up of flow-cold or evaluate-scan takes 5-20 ms, too short
   to time alone on a host whose speed jitters, and single set-ups
   fall into a few modes, so a median over them jumps between modes
   from run to run. So set-up repeats in [setup_batches] batches of at
   least [batch_s] each, and [setup_s] is the median batch's mean per
   set-up, scaled by the speed of all the batches; generate and
   validate times are means per set-up. Each set-up starts from a
   collected heap, as a single set-up would, and so the garbage of a
   hundred set-ups never piles up into [peak_rss_mb]. [f] returns its
   value and its raw generate and validate times; the last set-up's
   value is the one used. *)
let setup_batches = 9

let batch_s = 0.12

let repeat_setup host f =
  let reps = ref 0 and generate = ref 0.0 and validate = ref 0.0 in
  let whole = ref Host.none and last = ref None and batches = ref [] in
  for _ = 1 to setup_batches do
    let t0 = now () and n = ref 0 and wall = ref 0.0 in
    while !n = 0 || now () -. t0 < batch_s do
      Gc.full_major ();
      let (v, g, va), i = Host.timed host f in
      last := Some v;
      generate := !generate +. g;
      validate := !validate +. va;
      whole := Host.add !whole i;
      wall := !wall +. i.wall_s;
      incr n
    done;
    reps := !reps + !n;
    batches := (!wall /. float_of_int !n) :: !batches
  done;
  let speed = Host.speed_in host !whole in
  let per_rep s = s *. speed /. float_of_int !reps in
  ( Option.get !last,
    { setup_s = Stats.median !batches *. speed; generate_s = per_rep !generate;
      validate_s = per_rep !validate } )

let make_circuits host profiles =
  let circuits, g = Host.timed host (fun () -> List.map Circuits.generate profiles) in
  let (), v = Host.timed host (fun () -> List.iter Layers.check_valid circuits) in
  (circuits, g.wall_s, v.wall_s)

(* Counters the op loop keeps for [outcome]. A failed correctness
   check counts the op as failed and clears [correct]; an exception
   counts it as failed and as not completed. [ops] holds every
   attempted op's interval, newest first. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable raised : int;
  mutable correct : bool;
  mutable ops : Host.interval list;
}

let tally () = { attempted = 0; failed = 0; raised = 0; correct = true; ops = [] }

let attempt t host ~what f =
  t.attempted <- t.attempted + 1;
  let result, i = Host.timed host (fun () -> match f () with r -> Ok r | exception e -> Error e) in
  t.ops <- i :: t.ops;
  match result with
  | Ok [] -> ()
  | Ok problems ->
    t.failed <- t.failed + 1;
    t.correct <- false;
    prerr_endline (what ^ ": " ^ String.concat "; " problems)
  | Error e ->
    t.failed <- t.failed + 1;
    t.raised <- t.raised + 1;
    prerr_endline (what ^ ": " ^ Printexc.to_string e)

let ordering (c : Flow.comparison) =
  if Stats.ordering_holds c then []
  else [ c.name ^ ": Table I ordering (proposed below input control and traditional) broken" ]

let same ~what a b =
  match Layers.diff a b with
  | [] -> []
  | fields -> [ what ^ " differs in " ^ String.concat ", " fields ]

(* The first comparison seen in slot [i] of [firsts], which every later
   one must repeat exactly. A slot stays empty until an op fills it, so
   an op that raised leaves no gap that shifts the others. *)
let repeat firsts i ~what cmp =
  match firsts.(i) with
  | Some f -> same ~what cmp f
  | None ->
    firsts.(i) <- Some cmp;
    []

(* One traced op: the recomposition with telemetry on, then the
   library call it mirrors with telemetry off, in alternating order so
   neither side always runs second. Returns both results and the two
   intervals. *)
let traced_op host ~index ~recomposed ~library =
  let traced () =
    Telemetry.enable ();
    Fun.protect ~finally:Telemetry.disable (fun () -> Host.timed host recomposed)
  in
  let library () = Host.timed host library in
  let (r, rt), (l, lt) =
    if index mod 2 = 0 then
      let r = traced () in
      (r, library ())
    else
      let l = library () in
      (traced (), l)
  in
  (r, rt, l, lt)

let ms s = 1000.0 *. s

(* 0 when no op gave a comparison; the run has failed then anyway. *)
let quality = function
  | [] -> [ ("static_reduction_pct", 0.0); ("dynamic_reduction_pct", 0.0) ]
  | cs ->
    [ ("static_reduction_pct", Stats.static_reduction_pct cs);
      ("dynamic_reduction_pct", Stats.dynamic_reduction_pct cs) ]

let sum = List.fold_left ( +. ) 0.0

(* Timing metrics are at reference speed ({!Host}); [window_s] is the
   measuring time, summed over units (passes, ops) that each carry their
   own speed, since a run's speed drifts; [latency] is (p50, p90) in
   seconds. Throughput counts every op that completed, also one that
   then failed a check: the work was done. *)
let end_to_end ~setup ~window_s ~rss ~latency:(p50, p90) (t : tally) =
  [ ("setup_s", setup.setup_s);
    ("ops_per_s", float_of_int (t.attempted - t.raised) /. window_s);
    ("latency_p50_ms", ms p50);
    ("latency_p90_ms", ms p90);
    ("peak_rss_mb", rss);
    ("success_pct", 100.0 *. float_of_int (t.attempted - t.failed) /. float_of_int t.attempted) ]

(* Too few ops for the ten-beyond rule: p90 here is near the slowest. *)
let op_latency ops = (Stats.quantile 0.5 ops, Stats.quantile 0.9 ops)

(* Wall-clock counterparts of the timing metrics, printed beside them
   so that the host's speed stays visible. *)
let wall ~host ~window:(w : Host.interval) (t : tally) =
  [ ("host_speed", Host.speed host);
    ("wall_ops_per_s", float_of_int (t.attempted - t.raised) /. w.wall_s) ]

let podem_counters () =
  let get name = Option.value (Telemetry.Counter.find name) ~default:0 in
  (get "atpg.podem.faults", get "atpg.podem.decisions", get "atpg.podem.backtracks")

(* Exact counts over one pass of the fixed input set, taken after the
   first pass. *)
type first_pass = { podem : int * int * int;  (** faults, decisions, backtracks *) shift_cycles : int }

let first_pass () = { podem = podem_counters (); shift_cycles = Layers.counts.shift_cycles }

(* Per-layer numbers of a traced run: times are per op at reference
   speed (span times include the sampler's share, about 3%), counts per
   pass. *)
let layer_values host ~setup ~n_ops ~traced ~library ~comparisons ~(first : first_pass) =
  let total = Layers.totals () in
  let speed = Host.speed_in host traced in
  let time name = fst (total name) *. speed in
  let per_op name = time name /. float_of_int n_ops in
  let traced_s = Host.at_speed host traced and library_s = Host.at_speed host library in
  let pct x = if traced_s > 0.0 then 100.0 *. x /. traced_s else 0.0 in
  let sum f = float_of_int (List.fold_left (fun acc c -> acc + f c) 0 comparisons) in
  let atpg_s = time Layers.generate in
  let scan_s = List.fold_left (fun acc n -> acc +. time n) 0.0 Layers.scan_sims in
  let scan_mw = List.fold_left (fun acc n -> acc +. snd (total n)) 0.0 Layers.scan_sims in
  let faults, decisions, backtracks = first.podem in
  let _, all_decisions, _ = podem_counters () in
  let detected = sum (fun c -> c.Flow.atpg.detected) in
  let testable = sum (fun c -> c.Flow.atpg.total_faults - c.Flow.atpg.untestable) in
  [ ("atpg.generate_s", per_op Layers.generate);
    ("atpg.share_pct", pct atpg_s);
    ("atpg.vectors", sum (fun c -> c.Flow.n_vectors));
    ("atpg.detected", detected);
    ("atpg.untestable", sum (fun c -> c.Flow.atpg.untestable));
    ("atpg.aborted", sum (fun c -> c.Flow.atpg.aborted));
    ("atpg.skipped", sum (fun c -> c.Flow.atpg.skipped));
    ("atpg.coverage_pct", if testable > 0.0 then 100.0 *. detected /. testable else 0.0);
    ("atpg.podem_faults", float_of_int faults);
    ("atpg.podem_decisions", float_of_int decisions);
    ("atpg.podem_backtracks", float_of_int backtracks);
    ("atpg.us_per_decision",
     if all_decisions > 0 then 1e6 *. time "atpg.podem_phase" /. float_of_int all_decisions
     else 0.0);
    ("atpg.alloc_mw", snd (total Layers.generate) /. 1e6 /. float_of_int n_ops);
    ("scan_sim.traditional_s", per_op Layers.sim_traditional);
    ("scan_sim.enhanced_s", per_op Layers.sim_enhanced);
    ("scan_sim.input_control_s", per_op Layers.sim_input_control);
    ("scan_sim.proposed_s", per_op Layers.sim_proposed);
    ("scan_sim.share_pct", pct scan_s);
    ("scan_sim.shift_cycles", float_of_int first.shift_cycles);
    ("scan_sim.toggles",
     sum (fun c ->
         c.Flow.traditional.total_toggles + c.enhanced_scan.total_toggles
         + c.input_control.total_toggles + c.proposed.total_toggles));
    ("scan_sim.cycles_per_s", if scan_s > 0.0 then float_of_int Layers.counts.cycles /. scan_s else 0.0);
    ("scan_sim.alloc_mw", scan_mw /. 1e6 /. float_of_int n_ops);
    ("core.c_algorithm_s", per_op Layers.c_algorithm);
    ("core.ivc_s", per_op Layers.ivc);
    ("core.controlled_pattern_s", per_op Layers.controlled_pattern);
    ("core.mux_select_s", per_op Layers.mux_select);
    ("core.reorder_s", per_op Layers.reorder);
    ("power.observability_s", per_op Layers.observability);
    ("core.muxable_cells", sum (fun c -> c.Flow.n_muxable));
    ("core.blocked_gates", sum (fun c -> c.Flow.blocked_gates));
    ("core.failed_gates", sum (fun c -> c.Flow.failed_gates));
    ("core.reordered_gates", sum (fun c -> c.Flow.reordered_gates));
    ("circuits.generate_s", setup.generate_s);
    ("netlist.validate_s", setup.validate_s);
    ("trace.overhead_pct", 100.0 *. (traced_s -. library_s) /. library_s) ]

(* ---- flow-cold ---- *)

(* s344 … s1494, in Table I order. s5378 and s9234 would take 29 s and
   90 s per cold flow, too long for one run. *)
let flow_cold_profiles =
  List.filteri (fun i _ -> i < 10) Circuits.table1_profiles

(* The ATPG configuration stays the repository default, as in Table I;
   the seed drives the flow's own randomised steps (C-algorithm and IVC
   fills), so PODEM does the same work under every seed. *)
let flow_cold host ~seed ~seconds ~trace =
  let circuits, setup =
    repeat_setup host (fun () -> make_circuits host flow_cold_profiles)
  in
  let t = tally () in
  let firsts = Array.make (List.length circuits) None in
  let passes = ref [] and first = ref None in
  let traced = ref Host.none and library = ref Host.none in
  let run_pass pass =
    List.iteri
      (fun i c ->
        let what = Printf.sprintf "flow-cold %s" (Circuit.name c) in
        attempt t host ~what (fun () ->
            let cmp, checks =
              if trace then begin
                let r, rt, l, lt =
                  traced_op host ~index:((pass * 10) + i)
                    ~recomposed:(fun () -> Layers.run_benchmark ~seed c)
                    ~library:(fun () -> Flow.run_benchmark ~seed c)
                in
                traced := Host.add !traced rt;
                library := Host.add !library lt;
                (l, same ~what:"traced recomposition" r l)
              end
              else (Flow.run_benchmark ~seed c, [])
            in
            checks @ repeat firsts i ~what:"repeated pass" cmp @ ordering cmp))
      circuits
  in
  let (), window =
    Host.timed host (fun () ->
        let start = now () in
        let pass = ref 0 in
        while !pass = 0 || now () -. start < seconds do
          let (), i = Host.timed host (fun () -> run_pass !pass) in
          passes := i :: !passes;
          if !pass = 0 then first := Some (first_pass ());
          incr pass
        done)
  in
  let comparisons = List.filter_map Fun.id (Array.to_list firsts) in
  let values =
    if trace then
      layer_values host ~setup ~n_ops:t.attempted ~traced:!traced ~library:!library
        ~comparisons ~first:(Option.get !first)
    else
      let pass_s = List.map (Host.at_speed host) !passes in
      end_to_end ~setup ~window_s:(sum pass_s) ~rss:(peak_rss_mb "self")
        ~latency:(op_latency pass_s) t
      @ quality comparisons
  in
  { Metrics.attempted = t.attempted; failed = t.failed; correct = t.correct; values;
    wall = wall ~host ~window t }

(* ---- evaluate-scan ---- *)

let evaluate_circuit = "s5378"

(* 534 vectors: what the real s5378 flow's ATPG produces. *)
let evaluate_vectors = 534

(* No ATPG runs: the vectors are seeded random ones, so the [atpg]
   outcome carried by the prepared circuit is empty. *)
let evaluate_prepared host ~seed =
  let profile = List.find (fun p -> p.Circuits.name = evaluate_circuit) Circuits.table1_profiles in
  let circuits, generate_s, validate_s = make_circuits host [ profile ] in
  let c = List.hd circuits in
  let vectors = Atpg.Pattern_gen.random_vectors ~seed ~count:evaluate_vectors c in
  let atpg =
    { Atpg.Pattern_gen.vectors = []; total_faults = 0; detected = 0; untestable = 0;
      aborted = 0; skipped = 0; coverage = 0.0 }
  in
  ({ Flow.circuit = c; chain = Scan.Scan_chain.natural c; vectors; atpg }, generate_s, validate_s)

let evaluate_scan host ~seed ~seconds ~trace =
  let prepared, setup = repeat_setup host (fun () -> evaluate_prepared host ~seed) in
  let t = tally () in
  let firsts = [| None |] and first = ref None in
  let traced = ref Host.none and library = ref Host.none in
  let (), window =
    Host.timed host (fun () ->
        let start = now () in
        while t.attempted = 0 || now () -. start < seconds do
          let index = t.attempted in
          attempt t host ~what:"evaluate-scan" (fun () ->
              let cmp, checks =
                if trace then begin
                  let r, rt, l, lt =
                    traced_op host ~index
                      ~recomposed:(fun () -> Layers.evaluate ~seed prepared)
                      ~library:(fun () -> Flow.evaluate ~seed prepared)
                  in
                  traced := Host.add !traced rt;
                  library := Host.add !library lt;
                  (l, same ~what:"traced recomposition" r l)
                end
                else (Flow.evaluate ~seed prepared, [])
              in
              if !first = None then first := Some (first_pass ());
              checks @ repeat firsts 0 ~what:"repeated evaluate" cmp @ ordering cmp)
        done)
  in
  let comparisons = List.filter_map Fun.id (Array.to_list firsts) in
  let values =
    if trace then
      let first = Option.value !first ~default:(first_pass ()) in
      layer_values host ~setup ~n_ops:t.attempted ~traced:!traced ~library:!library
        ~comparisons ~first
    else
      let op_s = List.map (Host.at_speed host) t.ops in
      end_to_end ~setup ~window_s:(sum op_s) ~rss:(peak_rss_mb "self") ~latency:(op_latency op_s) t
      @ quality comparisons
  in
  { Metrics.attempted = t.attempted; failed = t.failed; correct = t.correct; values;
    wall = wall ~host ~window t }
