(* The traced run: [Flow.prepare] and [Flow.evaluate] rebuilt from the
   public calls they chain, with one span around each call. Spans are
   recorded by the benchmark, outside the library, so the program under
   test is unchanged. The result must equal the library's own [Flow]
   field by field: if [Flow] ever chains these
   calls differently, [diff] reports it and the traced run fails instead
   of measuring a different program. *)

open Netlist
module Flow = Scanpower.Flow

(* Span names: the public function each span wraps. The library's own
   spans are lower-case, so these never collide with them. *)
let validate = "Validate.circuit"
let generate = "Pattern_gen.generate"
let sim_traditional = "Scan_sim.measure/traditional"
let sim_enhanced = "Scan_sim.measure/enhanced"
let sim_input_control = "Scan_sim.measure/input_control"
let sim_proposed = "Scan_sim.measure/proposed"
let c_algorithm = "C_algorithm.find"
let mux_select = "Mux_insertion.select"
let observability = "Observability.compute"
let controlled_pattern = "Controlled_pattern.find"
let ivc = "Ivc.fill"
let reorder = "Input_reorder.optimize"
let scan_sims = [ sim_traditional; sim_enhanced; sim_input_control; sim_proposed ]

let span name f = Telemetry.Span.with_ ~name f

(* Scan-simulation cycle counts, which [Flow.comparison] does not
   carry, summed over every traced measurement. *)
type counts = { mutable shift_cycles : int; mutable cycles : int }

let counts = { shift_cycles = 0; cycles = 0 }

(* Circuits must lint clean: an error here is a bug in the generator or
   the netlist, not a measurement. *)
let check_valid c =
  match Validate.errors (Validate.circuit c) with
  | [] -> ()
  | errs -> failwith (Circuit.name c ^ ": " ^ Validate.summary errs)

let prepare c =
  span validate (fun () -> check_valid c);
  let c = if Techmap.Mapper.is_mapped c then c else Techmap.Mapper.map c in
  let atpg = span generate (fun () -> Atpg.Pattern_gen.generate c) in
  { Flow.circuit = c; chain = Scan.Scan_chain.natural c; vectors = atpg.vectors; atpg }

let result_of (m : Scan.Scan_sim.result) =
  counts.shift_cycles <- counts.shift_cycles + m.shift_cycles;
  counts.cycles <- counts.cycles + m.cycles;
  {
    Flow.dynamic_per_hz_uw = m.dynamic.Power.Switching.dynamic_per_hz_uw;
    static_uw = m.avg_static_uw;
    peak_static_uw = m.peak_static_uw;
    total_toggles = m.total_toggles;
  }

(* Mirrors [Flow.evaluate] step by step, including the seeds (+1 for the
   C-algorithm, +2 for IVC) and the copy taken before reordering. *)
let evaluate ~seed (p : Flow.prepared) =
  let c = p.circuit and chain = p.chain and vectors = p.vectors in
  let measure name c policy =
    result_of (span name (fun () -> Scan.Scan_sim.measure c chain policy ~vectors))
  in
  let trad = measure sim_traditional c Scan.Scan_sim.traditional in
  let enh = measure sim_enhanced c Scan.Scan_sim.enhanced_scan in
  let ic = span c_algorithm (fun () -> Scanpower.C_algorithm.find ~seed:(seed + 1) c) in
  let ic_m =
    measure sim_input_control c
      { Scan.Scan_sim.pi_during_shift = Some ic.pi_pattern; forced_pseudo = [];
        hold_previous_capture = false }
  in
  let mux = span mux_select (fun () -> Scanpower.Mux_insertion.select c) in
  let obs = span observability (fun () -> Power.Observability.compute c) in
  let cp =
    span controlled_pattern (fun () ->
        Scanpower.Controlled_pattern.find
          ~direction:(Scanpower.Justify.Leakage_directed obs) c ~muxable:mux.muxable)
  in
  let filled =
    span ivc (fun () ->
        Scanpower.Ivc.fill ~seed:(seed + 2) c ~values:cp.values ~controlled:cp.controlled)
  in
  let concrete id = filled.values.(id) = Logic.One in
  let forced_pseudo = List.map (fun id -> (id, concrete id)) mux.muxable in
  let c' = Circuit.copy c in
  let ro = span reorder (fun () -> Scanpower.Input_reorder.optimize c' ~values:filled.values) in
  let prop_m =
    measure sim_proposed c'
      { Scan.Scan_sim.pi_during_shift = Some (Array.map concrete (Circuit.inputs c));
        forced_pseudo; hold_previous_capture = false }
  in
  {
    Flow.name = Circuit.name c;
    n_vectors = List.length vectors;
    n_dffs = Array.length (Circuit.dffs c);
    n_muxable = List.length mux.muxable;
    blocked_gates = cp.blocked_gates;
    failed_gates = cp.failed_gates;
    reordered_gates = ro.gates_reordered;
    atpg = Flow.atpg_summary_of p.atpg;
    traditional = trad;
    input_control = ic_m;
    proposed = prop_m;
    enhanced_scan = enh;
  }

let run_benchmark ~seed c = evaluate ~seed (prepare c)

(* Field names whose values differ; [] when the comparisons are equal.
   [compare] rather than [=] so that two nan fields count as equal. *)
let diff (a : Flow.comparison) (b : Flow.comparison) =
  let fields =
    [ ("name", compare a.name b.name);
      ("n_vectors", compare a.n_vectors b.n_vectors);
      ("n_dffs", compare a.n_dffs b.n_dffs);
      ("n_muxable", compare a.n_muxable b.n_muxable);
      ("blocked_gates", compare a.blocked_gates b.blocked_gates);
      ("failed_gates", compare a.failed_gates b.failed_gates);
      ("reordered_gates", compare a.reordered_gates b.reordered_gates);
      ("atpg", compare a.atpg b.atpg);
      ("traditional", compare a.traditional b.traditional);
      ("input_control", compare a.input_control b.input_control);
      ("proposed", compare a.proposed b.proposed);
      ("enhanced_scan", compare a.enhanced_scan b.enhanced_scan) ]
  in
  List.filter_map (fun (f, d) -> if d = 0 then None else Some f) fields

(* Sum of duration and minor words per span name over every recorded
   span tree (library spans included, as children of these). *)
let totals () =
  let tbl = Hashtbl.create 32 in
  let rec walk (s : Telemetry.Span.t) =
    let d, w = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0.0, 0.0) in
    Hashtbl.replace tbl s.name (d +. Telemetry.Span.duration_s s, w +. s.minor_words);
    List.iter walk (Telemetry.Span.children s)
  in
  List.iter walk (Telemetry.Span.roots ());
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:(0.0, 0.0)
