(** End-to-end experiment pipeline: map the circuit to the library,
    build the scan chain, generate a compacted test set, then measure
    scan-mode dynamic and static power for the three structures the
    paper compares — traditional scan, the input-control baseline [8],
    and the proposed multiplexed structure (AddMUX +
    FindControlledInputPattern + IVC don't-care fill + gate input
    reordering). *)

open Netlist

type prepared = {
  circuit : Circuit.t;  (** mapped *)
  chain : Scan.Scan_chain.t;
  vectors : bool array list;
  atpg : Atpg.Pattern_gen.outcome;
}

val prepare : ?atpg_config:Atpg.Pattern_gen.config -> Circuit.t -> prepared
(** Maps the circuit if needed and generates its test set. Runs
    {!Netlist.Validate.circuit} first: lint errors raise one
    {!Errors.Error} (code [Validation], stage ["flow.prepare"])
    carrying {e all} diagnostics; warnings only reach the telemetry
    log. *)

val prepare_cached : ?atpg_config:Atpg.Pattern_gen.config -> Circuit.t -> prepared
(** Like {!prepare} but memoized (process-wide) on the netlist content
    and the ATPG configuration, so sweeping flow-parameter points on
    the same circuit runs techmap + ATPG once. Safe because
    {!evaluate} never mutates a [prepared] — the reorder step works on
    a copy. Telemetry counters [flow.prepare_memo.hit]/[.miss]/
    [.eviction] track its effectiveness, and the gauges
    [flow.prepare_registry.{entries,hits,misses,evictions}] mirror the
    running totals so one metrics snapshot shows warm-vs-cold
    behaviour. *)

val prepare_key : ?atpg_config:Atpg.Pattern_gen.config -> Circuit.t -> string
(** The content digest {!prepare_cached} memoizes on: netlist text
    plus the ATPG configuration (seed and backtrack limit). Two circuits with the same key
    produce the same [prepared] — the serving daemon keys its warm
    machine registry on this. *)

type prepare_stats = {
  p_entries : int;  (** prepared circuits currently resident *)
  p_hits : int;
  p_misses : int;
  p_evictions : int;
}

val prepare_stats : unit -> prepare_stats
(** Running totals for the {!prepare_cached} registry since process
    start (or the last {!clear_prepared}). *)

val set_prepare_capacity : int -> unit
(** Bound the registry to [n] prepared circuits, evicting
    least-recently-used entries beyond it. [n <= 0] (the default)
    means unbounded, the right choice for one-shot CLI runs; the
    serving daemon sets its registry capacity here so a stream of
    distinct tenant circuits cannot grow the heap without bound. *)

val clear_prepared : unit -> unit
(** Drop every resident entry and zero the statistics. For tests. *)

type technique_result = {
  dynamic_per_hz_uw : float;
  static_uw : float;  (** average leakage over shift cycles *)
  peak_static_uw : float;
  total_toggles : int;
}

type atpg_summary = {
  total_faults : int;
  detected : int;
  untestable : int;
  aborted : int;  (** faults the PODEM backtrack limit gave up on *)
  skipped : int;  (** faults the phase-2 budget never reached *)
  coverage : float;
}

val atpg_summary_of : Atpg.Pattern_gen.outcome -> atpg_summary

val atpg_status : atpg_summary -> string
(** ["complete"] when every fault was resolved, ["aborted_faults"]
    when the backtrack limit cut some off, ["budget_exhausted"] when
    only the budget did. An abort degrades coverage but never fails
    the flow — reports carry this status instead. *)

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
      (** the hold-latch full-isolation structure ([5], enhanced scan)
          measured for reference: it also silences the shift phase but
          costs a latch per scan cell and degrades functional timing,
          which is exactly what the paper's method avoids *)
}

val evaluate : ?engine:Scan.Scan_sim.engine -> ?seed:int -> prepared -> comparison
(** [engine] selects the scan-simulation kernel (default
    {!Scan.Scan_sim.Packed}); [Scalar] replays the event-driven
    reference, the tests' oracle. Toggle counts, dynamic power and
    responses are identical between the two; the static averages agree
    to float accumulation order. *)

val run_benchmark :
  ?atpg_config:Atpg.Pattern_gen.config ->
  ?engine:Scan.Scan_sim.engine ->
  ?seed:int ->
  Circuit.t ->
  comparison
(** [prepare] followed by [evaluate]. *)

val run_benchmark_cached :
  ?atpg_config:Atpg.Pattern_gen.config ->
  ?seed:int ->
  Circuit.t ->
  comparison
(** [prepare_cached] followed by [evaluate]: identical results to
    {!run_benchmark} (the preparation is deterministic), minus the
    repeated ATPG when the same circuit is evaluated at several
    parameter points in one process. *)

val improvement : float -> float -> float
(** [improvement base x] = percentage reduction of [x] versus [base]
    (positive = better), as reported in Table I. When [base] is zero no
    percentage exists: the result is [nan] (unless [x] is also zero, in
    which case it is [0.0]) so a regression from a zero baseline can
    never masquerade as "no change". *)

val improvement_json : base:float -> float -> Telemetry.Json.t
(** {!improvement} with the edge cases made explicit instead of
    smuggled through [nan] (which the JSON layer can only render as
    [null]): [{"status":"ok","pct":…}], [{"status":"no_change"}]
    (both zero), [{"status":"zero_baseline"}] (regression from a zero
    baseline) or [{"status":"undefined"}] (a [nan] input). *)
