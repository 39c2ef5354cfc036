(* Every metric the benchmark prints, with its unit, in print order.
   BENCHMARK.json lists the same names and units; the tests check that
   the two agree. Every workload prints every metric of its mode: a
   per-layer metric reads 0 on a workload where that layer does no work. *)

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms"); ("peak_rss_mb", "MB"); ("success_pct", "%");
    ("static_reduction_pct", "%"); ("dynamic_reduction_pct", "%") ]

let per_layer =
  [ ("atpg.generate_s", "s"); ("atpg.share_pct", "%"); ("atpg.vectors", "count");
    ("atpg.detected", "count"); ("atpg.untestable", "count");
    ("atpg.aborted", "count"); ("atpg.skipped", "count");
    ("atpg.coverage_pct", "%"); ("atpg.podem_faults", "count");
    ("atpg.podem_decisions", "count"); ("atpg.podem_backtracks", "count");
    ("atpg.us_per_decision", "us"); ("atpg.alloc_mw", "Mw");
    ("scan_sim.traditional_s", "s"); ("scan_sim.enhanced_s", "s");
    ("scan_sim.input_control_s", "s"); ("scan_sim.proposed_s", "s");
    ("scan_sim.share_pct", "%"); ("scan_sim.shift_cycles", "count");
    ("scan_sim.toggles", "count"); ("scan_sim.cycles_per_s", "1/s");
    ("scan_sim.alloc_mw", "Mw");
    ("core.c_algorithm_s", "s"); ("core.ivc_s", "s");
    ("core.controlled_pattern_s", "s"); ("core.mux_select_s", "s");
    ("core.reorder_s", "s"); ("power.observability_s", "s");
    ("core.muxable_cells", "count"); ("core.blocked_gates", "count");
    ("core.failed_gates", "count"); ("core.reordered_gates", "count");
    ("circuits.generate_s", "s"); ("netlist.validate_s", "s");
    ("server.health_p50_ms", "ms"); ("server.validate_p50_ms", "ms");
    ("server.atpg_warm_p50_ms", "ms"); ("server.flow_warm_p50_ms", "ms");
    ("server.flow_fork_p50_ms", "ms"); ("server.sweep_point_p50_ms", "ms");
    ("server.tenant_miss_p50_ms", "ms");
    ("server.registry_hits", "count"); ("server.registry_misses", "count");
    ("server.registry_evictions", "count"); ("server.exec_forked", "count");
    ("server.exec_domain", "count"); ("server.fork_fallbacks", "count");
    ("server.overloaded", "count"); ("server.deadline", "count");
    ("client.replays", "count"); ("server.unclean_drains", "count");
    ("trace.overhead_pct", "%") ]

(* One workload's outcome. [values] holds the metrics it measured;
   {!result_json} fills the rest of the mode's table. *)
type outcome = {
  attempted : int;
  failed : int;
  correct : bool;  (** every correctness check passed *)
  values : (string * float) list;
  wall : (string * float) list;
      (** printed beside the metrics, not part of the result: the host's
          speed and wall-clock counterparts of the timing metrics *)
}

let result_json ~trace o =
  let table = if trace then per_layer else end_to_end in
  let metric (name, unit) =
    let value =
      match List.assoc_opt name o.values with
      | Some v when Float.is_finite v -> v
      | Some _ -> failwith (name ^ " is not a finite number")
      | None when trace -> 0.0
      | None -> failwith ("workload did not measure " ^ name)
    in
    (name, Telemetry.Json.Obj [ ("value", Telemetry.Json.Float value); ("unit", Telemetry.Json.String unit) ])
  in
  Telemetry.Json.Obj
    [ ("correct", Telemetry.Json.Bool o.correct);
      ("attempted", Telemetry.Json.Int o.attempted);
      ("failed", Telemetry.Json.Int o.failed);
      ("metrics", Telemetry.Json.Obj (List.map metric table)) ]
