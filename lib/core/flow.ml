open Netlist

type prepared = {
  circuit : Circuit.t;
  chain : Scan.Scan_chain.t;
  vectors : bool array list;
  atpg : Atpg.Pattern_gen.outcome;
}

(* Lint the incoming netlist before spending ATPG time on it: errors
   become one structured Validation failure carrying every diagnostic;
   warnings (dangling gates, unused inputs) only reach the telemetry
   log. Parsed netlists were already validated harder by
   [Bench_parser]; this is the safety net for programmatically built
   circuits entering the flow. *)
let validate_input c =
  let diags = Validate.circuit c in
  List.iter
    (fun d ->
      if d.Validate.severity = Validate.Warning then
        Telemetry.Log.warn (Validate.to_string d)
          ~fields:[ ("circuit", Telemetry.Json.String (Circuit.name c)) ])
    diags;
  match Validate.errors diags with
  | [] -> ()
  | errs ->
    raise
      (Errors.Error
         (Errors.make ~circuit:(Circuit.name c) ~code:Errors.Validation
            ~stage:"flow.prepare" (Validate.summary errs)))

let prepare ?atpg_config c =
  Telemetry.Span.with_ ~name:"flow.prepare" (fun () ->
      validate_input c;
      let c =
        Telemetry.Span.with_ ~name:"techmap" (fun () ->
            (* an unmappable gate is an input problem, not a bug: the
               library's Invalid_argument becomes a structured
               Validation error naming the circuit *)
            try if Techmap.Mapper.is_mapped c then c else Techmap.Mapper.map c
            with Invalid_argument msg ->
              raise
                (Errors.Error
                   (Errors.make ~circuit:(Circuit.name c)
                      ~code:Errors.Validation ~stage:"flow.techmap" msg)))
      in
      let atpg =
        Telemetry.Span.with_ ~name:"atpg" (fun () ->
            Atpg.Pattern_gen.generate ?config:atpg_config c)
      in
      {
        circuit = c;
        chain = Scan.Scan_chain.natural c;
        vectors = atpg.Atpg.Pattern_gen.vectors;
        atpg;
      })

let prepare_key ?atpg_config c =
  let cfg =
    match atpg_config with
    | Some cfg -> cfg
    | None -> Atpg.Pattern_gen.default_config
  in
  let cfg_text =
    Printf.sprintf "%d/%d" cfg.Atpg.Pattern_gen.seed
      cfg.Atpg.Pattern_gen.backtrack_limit
  in
  Digest.to_hex
    (Digest.string (Bench_writer.to_string c ^ "\x00" ^ cfg_text))

type technique_result = {
  dynamic_per_hz_uw : float;
  static_uw : float;
  peak_static_uw : float;
  total_toggles : int;
}

type atpg_summary = {
  total_faults : int;
  detected : int;
  untestable : int;
  aborted : int;
  skipped : int;
  coverage : float;
}

let atpg_summary_of (o : Atpg.Pattern_gen.outcome) =
  {
    total_faults = o.Atpg.Pattern_gen.total_faults;
    detected = o.Atpg.Pattern_gen.detected;
    untestable = o.Atpg.Pattern_gen.untestable;
    aborted = o.Atpg.Pattern_gen.aborted;
    skipped = 0;
    coverage = o.Atpg.Pattern_gen.coverage;
  }

(* an abort (backtrack exhaustion) degrades coverage but must not fail
   the flow; reports surface it as an explicit status instead *)
let atpg_status s = if s.aborted > 0 then "aborted_faults" else "complete"

type comparison = {
  name : string;
  n_vectors : int;
  n_dffs : int;
  n_muxable : int;
  blocked_gates : int;
  failed_gates : int;
  reordered_gates : int;
  atpg : atpg_summary;
  traditional : technique_result;
  input_control : technique_result;
  proposed : technique_result;
  enhanced_scan : technique_result;
      (** the hold-latch structure of the related work, for reference *)
}

let result_of (m : Scan.Scan_sim.result) =
  {
    dynamic_per_hz_uw = m.Scan.Scan_sim.dynamic.Power.Switching.dynamic_per_hz_uw;
    static_uw = m.Scan.Scan_sim.avg_static_uw;
    peak_static_uw = m.Scan.Scan_sim.peak_static_uw;
    total_toggles = m.Scan.Scan_sim.total_toggles;
  }

(* sampled after every [evaluate], so a sweep worker reports its peak
   heap whether its prepare ran or came from a registry *)
let g_peak_heap = Telemetry.Gauge.make "flow.peak_heap_words"

let record_peak_heap () =
  if Telemetry.enabled () then
    Telemetry.Gauge.observe_max g_peak_heap
      (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)

let evaluate ?(seed = 42) p =
  Fun.protect ~finally:record_peak_heap @@ fun () ->
  Telemetry.Span.with_ ~name:"flow.evaluate" (fun () ->
  let span name fn = Telemetry.Span.with_ ~name fn in
  let c = p.circuit in
  let chain = p.chain in
  let vectors = p.vectors in
  (* 1. traditional scan *)
  let trad =
    span "scan_sim.traditional" (fun () ->
        Scan.Scan_sim.measure c chain Scan.Scan_sim.traditional
          ~vectors)
  in
  (* enhanced scan ([5]/hold latches): full isolation, but at a latch
     per cell and a speed penalty the paper's structure avoids *)
  let enh =
    span "scan_sim.enhanced" (fun () ->
        Scan.Scan_sim.measure c chain Scan.Scan_sim.enhanced_scan
          ~vectors)
  in
  (* 2. input control baseline [8] *)
  let ic = span "c_algorithm" (fun () -> C_algorithm.find ~seed:(seed + 1) c) in
  let ic_policy =
    {
      Scan.Scan_sim.pi_during_shift = Some ic.C_algorithm.pi_pattern;
      forced_pseudo = [];
      hold_previous_capture = false;
    }
  in
  let ic_m =
    span "scan_sim.input_control" (fun () ->
        Scan.Scan_sim.measure c chain ic_policy ~vectors)
  in
  (* 3. proposed structure *)
  let mux = span "mux_select" (fun () -> Mux_insertion.select c) in
  let obs = span "observability" (fun () -> Power.Observability.compute c) in
  let cp =
    span "controlled_pattern" (fun () ->
        Controlled_pattern.find ~direction:(Justify.Leakage_directed obs) c
          ~muxable:mux.Mux_insertion.muxable)
  in
  let filled =
    span "ivc" (fun () ->
        Ivc.fill ~seed:(seed + 2) c ~values:cp.Controlled_pattern.values
          ~controlled:cp.Controlled_pattern.controlled)
  in
  let values = filled.Ivc.values in
  let concrete id =
    match values.(id) with
    | Logic.One -> true
    | Logic.Zero -> false
    | Logic.X -> false (* IVC leaves no controlled input free *)
  in
  let pi_pattern = Array.map concrete (Circuit.inputs c) in
  let forced_pseudo =
    List.map (fun id -> (id, concrete id)) mux.Mux_insertion.muxable
  in
  (* reorder gate inputs on a copy so the baselines above stay intact *)
  let c' = Circuit.copy c in
  let reorder = span "reorder" (fun () -> Input_reorder.optimize c' ~values) in
  let prop_policy =
    { Scan.Scan_sim.pi_during_shift = Some pi_pattern;
      forced_pseudo;
      hold_previous_capture = false;
    }
  in
  let prop_m =
    span "scan_sim.proposed" (fun () ->
        Scan.Scan_sim.measure c' chain prop_policy ~vectors)
  in
  Telemetry.Log.debug "flow.evaluate done"
    ~fields:
      [
        ("circuit", Telemetry.Json.String (Circuit.name c));
        ("vectors", Telemetry.Json.Int (List.length vectors));
        ("muxable", Telemetry.Json.Int (List.length mux.Mux_insertion.muxable));
        ("blocked_gates", Telemetry.Json.Int cp.Controlled_pattern.blocked_gates);
        ("reordered_gates", Telemetry.Json.Int reorder.Input_reorder.gates_reordered);
      ];
  {
    name = Circuit.name c;
    n_vectors = List.length vectors;
    n_dffs = Array.length (Circuit.dffs c);
    n_muxable = List.length mux.Mux_insertion.muxable;
    blocked_gates = cp.Controlled_pattern.blocked_gates;
    failed_gates = cp.Controlled_pattern.failed_gates;
    reordered_gates = reorder.Input_reorder.gates_reordered;
    atpg = atpg_summary_of p.atpg;
    traditional = result_of trad;
    input_control = result_of ic_m;
    proposed = result_of prop_m;
    enhanced_scan = result_of enh;
  })

let run_benchmark ?atpg_config ?seed c =
  Telemetry.Span.with_ ~name:"flow.run_benchmark"
    ~fields:[ ("circuit", Telemetry.Json.String (Netlist.Circuit.name c)) ]
    (fun () -> evaluate ?seed (prepare ?atpg_config c))

(* [base = 0] admits no percentage: returning 0.0 there made a
   regression from a zero baseline read as "no change", so it now
   yields [nan] (rendered as "nan" by the report printers) unless [x]
   is also zero, which genuinely is no change. *)
let improvement base x =
  if base = 0.0 then (if x = 0.0 then 0.0 else Float.nan)
  else 100.0 *. (base -. x) /. base

(* The JSON layer degrades non-finite floats to null, which readers
   then cannot tell apart from "0% change"; reports therefore carry an
   explicit status beside (or instead of) the percentage. *)
let improvement_json ~base x =
  let module Json = Telemetry.Json in
  if Float.is_nan base || Float.is_nan x then
    Json.Obj [ ("status", Json.String "undefined") ]
  else if base = 0.0 then
    if x = 0.0 then Json.Obj [ ("status", Json.String "no_change") ]
    else Json.Obj [ ("status", Json.String "zero_baseline") ]
  else
    Json.Obj
      [
        ("status", Json.String "ok");
        ("pct", Json.Float (100.0 *. (base -. x) /. base));
      ]
