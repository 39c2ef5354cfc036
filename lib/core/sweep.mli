(** Batch evaluation of the full Table I flow over (circuit ×
    flow-parameter) points, on top of {!Runner}: forked workers,
    per-job timeout/retry, crash isolation, and a content-addressed
    result cache keyed by the netlist text, the parameter point and
    {!schema_version} — so a re-run recomputes only points whose
    inputs (or the result schema) changed, and results are
    bit-identical to running {!Flow.run_benchmark} per circuit. *)

open Netlist

val schema_version : string
(** Versions both the serialized {!Flow.comparison} layout and the
    cache key; bump it whenever the flow's semantics change so stale
    cache entries can never be mistaken for fresh results. *)

type params = { seed : int }

type point = { circuit : Circuit.t; params : params }

val points : ?seeds:int list -> Circuit.t list -> point list
(** Cross product, grouped per circuit (all seeds of a circuit are
    adjacent, so in sequential mode {!run}'s registry prepares each
    circuit once). [seeds] defaults to [[42]], the flow's default
    seed. *)

val cache_key : point -> string
(** Content address: digest of the netlist ([Bench_writer.to_string]),
    the parameter point and {!schema_version}. *)

val atpg_to_json : Flow.atpg_summary -> Telemetry.Json.t
(** The ATPG summary as one object: its derived ["status"], the fault
    counts and the coverage. {!comparison_to_json} embeds it under
    ["atpg"]; the daemon's [atpg] response splices in its fields. *)

val comparison_to_json : Flow.comparison -> Telemetry.Json.t
(** Embeds the ATPG summary (with its derived ["status"]) beside the
    four technique results. *)

val comparison_of_json :
  Telemetry.Json.t -> (Flow.comparison, string) result
(** Exact inverse of {!comparison_to_json} (floats round-trip
    bit-identically through the JSON layer's 17-digit rendering;
    non-finite values degrade to [nan], which JSON cannot carry). *)

type job_result = {
  circuit : string;
  seed : int;
  comparison : (Flow.comparison, string) result;
  from_cache : bool;
  attempts : int;  (** 0 when served from cache *)
  duration_s : float;
  telemetry : Telemetry.Json.t option;
      (** the worker's span tree + counters for this job *)
}

type report = { results : job_result list; stats : Runner.stats }

val run :
  ?jobs:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?deadline_s:float ->
  ?poison_threshold:int ->
  ?handle_signals:bool ->
  ?cache:Runner.Cache.t ->
  ?capture_telemetry:bool ->
  ?on_event:(Runner.event -> unit) ->
  ?registry:Registry.t ->
  point list ->
  report
(** Evaluate every point; [results] is in point order. Defaults:
    [jobs = 1], no timeout, [retries = 1], no backoff, no deadline,
    [poison_threshold = 3], signals not handled, no cache,
    [capture_telemetry = true]. With [jobs > 1] every attempt runs in
    a forked child (crash/timeout isolation, per-worker telemetry).

    Each point is prepared through [registry] under
    {!Flow.prepare_key}, so points sharing a circuit and ATPG
    configuration run techmap + ATPG once; a forked attempt works on
    its own copy of the registry, so its entries do not reach the
    parent. Without [registry] the batch uses a fresh one of its own.

    With a [cache], each finished point is stored as it completes, so
    re-running a batch that was killed mid-run serves the finished
    points from the cache and recomputes only the rest. *)

val rows : report -> Report.row list
(** Table I rows of the successful results, in point order. *)

val all_ok : report -> bool

val to_json : report -> Telemetry.Json.t
(** Aggregate report (schema {!schema_version}): pool counters plus
    one object per job with its parameters, status, cache provenance,
    timing, comparison and telemetry snapshot. *)

val to_csv : report -> string
(** One line per job: parameters, provenance, the raw power numbers of
    all four structures, the improvement percentages of the proposed
    structure versus traditional scan (["undefined"] when no
    percentage exists, never ["nan"]), and the ATPG
    coverage/aborted/status columns. *)

val write_json : string -> report -> unit

val write_csv : string -> report -> unit
