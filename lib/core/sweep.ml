open Netlist
module Json = Telemetry.Json

(* /2: comparisons now embed the ATPG summary. Bumping this changes
   every cache key, which is exactly the clean invalidation story: /1
   entries become stale misses (deleted on sight), never mis-decodes.
   /3: the untestable count now includes the faults implication
   refutes before PODEM searches, and the aborted count excludes them.
   /4: the detected count includes the aborted faults the final test
   set detects, and faults PODEM never reaches are skipped, not
   detected.
   /5: implication starts from the circuit's learned constant lines,
   so it refutes more faults: untestable rises and aborted falls for
   the same inputs, and coverage and status with them.
   /6: PODEM attempts every fault (no 4000-attempt budget), so the
   largest circuits get different test sets for the same inputs, and
   the "skipped" key is gone. *)
let schema_version = "scanpower.sweep/6"

type params = { seed : int }
type point = { circuit : Circuit.t; params : params }

let points ?(seeds = [ 42 ]) circuits =
  List.concat_map
    (fun circuit -> List.map (fun seed -> { circuit; params = { seed } }) seeds)
    circuits

let cache_key point =
  Runner.Cache.key ~schema:schema_version
    ~parts:
      [
        Bench_writer.to_string point.circuit;
        Printf.sprintf "seed=%d" point.params.seed;
      ]

(* ------------------------------------------------------------------ *)
(* comparison <-> JSON                                                 *)
(* ------------------------------------------------------------------ *)

let technique_to_json (t : Flow.technique_result) =
  Json.Obj
    [
      ("dynamic_per_hz_uw", Json.Float t.Flow.dynamic_per_hz_uw);
      ("static_uw", Json.Float t.Flow.static_uw);
      ("peak_static_uw", Json.Float t.Flow.peak_static_uw);
      ("total_toggles", Json.Int t.Flow.total_toggles);
    ]

let atpg_to_json (a : Flow.atpg_summary) =
  Json.Obj
    [
      ("status", Json.String (Flow.atpg_status a));
      ("total_faults", Json.Int a.Flow.total_faults);
      ("detected", Json.Int a.Flow.detected);
      ("untestable", Json.Int a.Flow.untestable);
      ("aborted", Json.Int a.Flow.aborted);
      ("coverage", Json.Float a.Flow.coverage);
    ]

let comparison_to_json (c : Flow.comparison) =
  Json.Obj
    [
      ("name", Json.String c.Flow.name);
      ("n_vectors", Json.Int c.Flow.n_vectors);
      ("n_dffs", Json.Int c.Flow.n_dffs);
      ("n_muxable", Json.Int c.Flow.n_muxable);
      ("blocked_gates", Json.Int c.Flow.blocked_gates);
      ("failed_gates", Json.Int c.Flow.failed_gates);
      ("reordered_gates", Json.Int c.Flow.reordered_gates);
      ("atpg", atpg_to_json c.Flow.atpg);
      ("traditional", technique_to_json c.Flow.traditional);
      ("input_control", technique_to_json c.Flow.input_control);
      ("proposed", technique_to_json c.Flow.proposed);
      ("enhanced_scan", technique_to_json c.Flow.enhanced_scan);
    ]

let ( let* ) = Result.bind

let string_field obj key =
  match Json.member key obj with
  | Some (Json.String s) -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" key)

let int_field obj key =
  match Json.member key obj with
  | Some (Json.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "missing int field %S" key)

let float_field obj key =
  match Json.member key obj with
  | Some (Json.Float f) -> Ok f
  | Some (Json.Int i) -> Ok (float_of_int i)
  | Some Json.Null -> Ok Float.nan (* JSON cannot carry nan/inf *)
  | _ -> Error (Printf.sprintf "missing float field %S" key)

let technique_of_json obj key =
  match Json.member key obj with
  | Some (Json.Obj _ as t) ->
    let* dynamic_per_hz_uw = float_field t "dynamic_per_hz_uw" in
    let* static_uw = float_field t "static_uw" in
    let* peak_static_uw = float_field t "peak_static_uw" in
    let* total_toggles = int_field t "total_toggles" in
    Ok { Flow.dynamic_per_hz_uw; static_uw; peak_static_uw; total_toggles }
  | _ -> Error (Printf.sprintf "missing technique field %S" key)

(* "status" is derived from the counts by [Flow.atpg_status], so the
   decoder ignores it rather than trusting the serialized copy. *)
let atpg_of_json obj =
  match Json.member "atpg" obj with
  | Some (Json.Obj _ as a) ->
    let* total_faults = int_field a "total_faults" in
    let* detected = int_field a "detected" in
    let* untestable = int_field a "untestable" in
    let* aborted = int_field a "aborted" in
    let* coverage = float_field a "coverage" in
    Ok
      { Flow.total_faults; detected; untestable; aborted; skipped = 0; coverage }
  | _ -> Error "missing atpg field"

let comparison_of_json obj =
  let* name = string_field obj "name" in
  let* n_vectors = int_field obj "n_vectors" in
  let* n_dffs = int_field obj "n_dffs" in
  let* n_muxable = int_field obj "n_muxable" in
  let* blocked_gates = int_field obj "blocked_gates" in
  let* failed_gates = int_field obj "failed_gates" in
  let* reordered_gates = int_field obj "reordered_gates" in
  let* atpg = atpg_of_json obj in
  let* traditional = technique_of_json obj "traditional" in
  let* input_control = technique_of_json obj "input_control" in
  let* proposed = technique_of_json obj "proposed" in
  let* enhanced_scan = technique_of_json obj "enhanced_scan" in
  Ok
    {
      Flow.name; n_vectors; n_dffs; n_muxable; blocked_gates; failed_gates;
      reordered_gates; atpg; traditional; input_control; proposed;
      enhanced_scan;
    }

(* ------------------------------------------------------------------ *)
(* running                                                             *)
(* ------------------------------------------------------------------ *)

type job_result = {
  circuit : string;
  seed : int;
  comparison : (Flow.comparison, string) result;
  from_cache : bool;
  attempts : int;
  duration_s : float;
  telemetry : Json.t option;
}

type report = { results : job_result list; stats : Runner.stats }

let job_id (point : point) =
  Printf.sprintf "%s seed=%d" (Circuit.name point.circuit) point.params.seed

(* A forced-abort injection legitimately changes the result (coverage
   drops, vectors differ), so the job must bypass the shared cache: an
   injected entry stored under the content address would outlive the
   chaos run and poison clean sweeps. *)
let abort_atpg (point : point) =
  Runner.Fault_inject.(fires Atpg_abort ~key:(job_id point ^ "#atpg"))

let atpg_config (point : point) =
  if abort_atpg point then
    Some { Atpg.Pattern_gen.default_config with backtrack_limit = 0 }
  else None

let prepare registry (point : point) =
  let c = point.circuit and atpg_config = atpg_config point in
  fst
    (Registry.find_or_prepare registry
       ~key:(Flow.prepare_key ?atpg_config c)
       ~name:(Circuit.name c)
       (fun () -> Flow.prepare ?atpg_config c))

let job_of registry (point : point) =
  {
    Runner.id = job_id point;
    cache_key = (if abort_atpg point then None else Some (cache_key point));
    run =
      (fun ~attempt:_ ->
        comparison_to_json
          (Flow.evaluate ~seed:point.params.seed (prepare registry point)));
  }

(* Forked attempts work on copies of [registry], so a circuit prepared
   in one never reaches the next: before the pool forks, prepare in
   [registry] each circuit (and ATPG configuration) that at least
   [jobs] points will compute, so that they all inherit it. Preparing
   it in every attempt would cost at least one preparation's wall time
   per circuit on [jobs] workers anyway; a circuit with fewer such
   points keeps its preparations in its workers, in parallel with the
   others. Points whose result is cached compute nothing. A failed
   preparation is left to the points' own attempts to report. Each
   preparation starts only while [stop ()] is false, and emits a
   [sweep.prepare_started] progress event. *)
let prepare_shared ?cache ~jobs ~stop registry points =
  let computes (point : point) =
    match cache with
    | Some c when not (abort_atpg point) ->
      not (Sys.file_exists (Runner.Cache.entry_path c (cache_key point)))
    | Some _ | None -> true
  in
  let keyed =
    List.filter_map
      (fun (point : point) ->
        if computes point then
          Some
            ( Flow.prepare_key ?atpg_config:(atpg_config point) point.circuit,
              point )
        else None)
      points
  in
  let count = Hashtbl.create 16 in
  List.iter
    (fun (key, _) ->
      Hashtbl.replace count key
        (1 + Option.value ~default:0 (Hashtbl.find_opt count key)))
    keyed;
  (* in point order, so the batch prepares as it would run *)
  List.iter
    (fun (key, (point : point)) ->
      let n = Hashtbl.find count key in
      if n >= jobs && not (stop ()) then begin
        Hashtbl.replace count key 0;
        if Telemetry.Events.has_subscribers () then
          Telemetry.Events.emit "sweep.prepare_started"
            [
              ("circuit", Json.String (Circuit.name point.circuit));
              ("points", Json.Int n);
            ];
        try ignore (prepare registry point) with Errors.Error _ -> ()
      end)
    keyed

(* ETA from the pool's observed job-latency distribution: the p50 is
   robust to one straggler circuit, and dividing by the worker count
   assumes the remaining jobs keep all lanes busy — optimistic near the
   tail, but it converges as the batch drains. *)
let eta_s ~jobs ~remaining =
  match Telemetry.Histogram.find "runner.job_s" with
  | Some s when s.Telemetry.Histogram.s_count > 0 ->
    [
      ( "eta_s",
        Json.Float
          (s.Telemetry.Histogram.p50 *. float_of_int remaining
          /. float_of_int (max 1 jobs)) );
    ]
  | _ -> []

let progress_events ~jobs ~total inner =
  let completed = ref 0 in
  let emit name (job : Runner.job) extra =
    if Telemetry.Events.has_subscribers () then
      Telemetry.Events.emit name
        ([
           ("job", Json.String job.Runner.id);
           ("completed", Json.Int !completed);
           ("total", Json.Int total);
         ]
        @ eta_s ~jobs ~remaining:(total - !completed)
        @ extra)
  in
  fun (ev : Runner.event) ->
    (match ev with
    | Runner.Started { job; attempt } ->
      emit "sweep.job_started" job [ ("attempt", Json.Int attempt) ]
    | Runner.Attempt_failed { job; attempt; failure; will_retry } ->
      emit
        (if will_retry then "sweep.job_retried" else "sweep.job_attempt_failed")
        job
        [
          ("attempt", Json.Int attempt);
          ("failure", Json.String (Runner.failure_to_string failure));
        ]
    | Runner.Finished { job; outcome } ->
      incr completed;
      let name, extra =
        match outcome with
        | Runner.Done { from_cache = true; _ } ->
          ("sweep.cache_hit", [ ("status", Json.String "ok") ])
        | Runner.Done { duration_s; attempts; _ } ->
          ( "sweep.job_finished",
            [
              ("status", Json.String "ok");
              ("attempts", Json.Int attempts);
              ("duration_s", Json.Float duration_s);
            ] )
        | Runner.Failed { last; attempts; quarantined } ->
          ( "sweep.job_finished",
            [
              ("status", Json.String "failed");
              ("attempts", Json.Int attempts);
              ("quarantined", Json.Bool quarantined);
              ("failure", Json.String (Runner.failure_to_string last));
            ] )
      in
      emit name job extra);
    inner ev

let run ?(jobs = 1) ?(timeout_s = 0.0) ?(retries = 1) ?(backoff_s = 0.0)
    ?(deadline_s = 0.0) ?(poison_threshold = 3) ?(handle_signals = false)
    ?cache ?(capture_telemetry = true)
    ?(on_event = fun (_ : Runner.event) -> ()) ?registry points =
  (* points are circuit-major, so even a batch-local registry runs
     techmap + ATPG once per circuit in sequential mode *)
  let registry =
    match registry with Some r -> r | None -> Registry.create ()
  in
  let on_event = progress_events ~jobs ~total:(List.length points) on_event in
  let config =
    {
      Runner.jobs; timeout_s; retries; backoff_s; deadline_s;
      poison_threshold; handle_signals; cache; capture_telemetry;
      on_event;
    }
  in
  let setup ~stop =
    if jobs > 1 then prepare_shared ?cache ~jobs ~stop registry points
  in
  let results, stats =
    Runner.run ~config ~setup (List.map (job_of registry) points)
  in
  let results =
    List.map2
      (fun (point : point) (r : Runner.result) ->
        let circuit = Circuit.name point.circuit in
        let seed = point.params.seed in
        match r.Runner.outcome with
        | Runner.Done { value; telemetry; from_cache; attempts; duration_s } ->
          {
            circuit; seed;
            comparison = comparison_of_json value;
            from_cache; attempts; duration_s; telemetry;
          }
        | Runner.Failed { attempts; last; quarantined } ->
          let msg = Runner.failure_to_string last in
          let msg = if quarantined then "quarantined: " ^ msg else msg in
          {
            circuit; seed;
            comparison = Error msg;
            from_cache = false; attempts; duration_s = 0.0; telemetry = None;
          })
      points results
  in
  { results; stats }

let rows t =
  List.filter_map
    (fun r ->
      match r.comparison with
      | Ok c -> Some (Report.of_comparison c)
      | Error _ -> None)
    t.results

let all_ok t =
  List.for_all (fun r -> Result.is_ok r.comparison) t.results

(* ------------------------------------------------------------------ *)
(* aggregate report                                                    *)
(* ------------------------------------------------------------------ *)

let job_to_json r =
  Json.Obj
    ([
       ("circuit", Json.String r.circuit);
       ("seed", Json.Int r.seed);
       ( "status",
         Json.String (match r.comparison with Ok _ -> "ok" | Error _ -> "failed")
       );
       ("from_cache", Json.Bool r.from_cache);
       ("attempts", Json.Int r.attempts);
       ("duration_s", Json.Float r.duration_s);
     ]
    @ (match r.comparison with
      | Ok c ->
        let t = c.Flow.traditional and p = c.Flow.proposed in
        [
          ("comparison", comparison_to_json c);
          ( "improvements",
            Json.Obj
              [
                ( "dynamic_vs_traditional",
                  Flow.improvement_json ~base:t.Flow.dynamic_per_hz_uw
                    p.Flow.dynamic_per_hz_uw );
                ( "static_vs_traditional",
                  Flow.improvement_json ~base:t.Flow.static_uw p.Flow.static_uw
                );
                ( "peak_static_vs_traditional",
                  Flow.improvement_json ~base:t.Flow.peak_static_uw
                    p.Flow.peak_static_uw );
              ] );
        ]
      | Error e -> [ ("error", Json.String e) ])
    @
    match r.telemetry with
    | None -> []
    | Some t -> [ ("telemetry", t) ])

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("pool", Runner.stats_to_json t.stats);
      ("jobs", Json.List (List.map job_to_json t.results));
    ]

let csv_header =
  "circuit,seed,status,from_cache,attempts,duration_s,n_vectors,n_dffs,\
   n_muxable,trad_dyn_per_hz_uw,trad_static_uw,ic_dyn_per_hz_uw,\
   ic_static_uw,prop_dyn_per_hz_uw,prop_static_uw,enh_dyn_per_hz_uw,\
   enh_static_uw,dyn_impr_vs_trad_pct,static_impr_vs_trad_pct,\
   atpg_coverage,atpg_aborted,atpg_status"

(* "undefined" instead of "nan": spreadsheet tools parse "nan" as a
   string in some locales and as a number in others, so an explicit
   marker is the only rendering that survives round-trips. *)
let csv_pct base x =
  let v = Flow.improvement base x in
  if Float.is_nan v then "undefined" else Printf.sprintf "%.3f" v

let csv_line r =
  let common =
    Printf.sprintf "%s,%d,%s,%b,%d,%.3f" r.circuit r.seed
      (match r.comparison with Ok _ -> "ok" | Error _ -> "failed")
      r.from_cache r.attempts r.duration_s
  in
  match r.comparison with
  | Error _ -> common ^ ",,,,,,,,,,,,,,,,"
  | Ok c ->
    let t = c.Flow.traditional
    and ic = c.Flow.input_control
    and p = c.Flow.proposed
    and e = c.Flow.enhanced_scan in
    Printf.sprintf
      "%s,%d,%d,%d,%.9e,%.6f,%.9e,%.6f,%.9e,%.6f,%.9e,%.6f,%s,%s,%.4f,%d,%s"
      common c.Flow.n_vectors c.Flow.n_dffs c.Flow.n_muxable
      t.Flow.dynamic_per_hz_uw t.Flow.static_uw ic.Flow.dynamic_per_hz_uw
      ic.Flow.static_uw p.Flow.dynamic_per_hz_uw p.Flow.static_uw
      e.Flow.dynamic_per_hz_uw e.Flow.static_uw
      (csv_pct t.Flow.dynamic_per_hz_uw p.Flow.dynamic_per_hz_uw)
      (csv_pct t.Flow.static_uw p.Flow.static_uw)
      c.Flow.atpg.Flow.coverage c.Flow.atpg.Flow.aborted
      (Flow.atpg_status c.Flow.atpg)

let to_csv t =
  String.concat "\n" (csv_header :: List.map csv_line t.results) ^ "\n"

let write_text path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let write_json path t = write_text path (Json.to_string (to_json t) ^ "\n")
let write_csv path t = write_text path (to_csv t)
