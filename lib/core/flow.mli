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

val prepare_key : ?atpg_config:Atpg.Pattern_gen.config -> Circuit.t -> string
(** The content digest of what {!prepare} depends on: the netlist text
    plus the ATPG configuration (seed and backtrack limit). Two circuits
    with the same key produce the same [prepared], and {!evaluate}
    never mutates a [prepared] (the reorder step works on a copy), so
    one [prepared] serves every evaluation under its key. {!Registry},
    the one warm store of prepared circuits, is keyed on this; the
    daemon's requests and {!Sweep.run}'s points both go through it. *)

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
  skipped : int;
      (** always 0: every fault gets a PODEM attempt. Kept only because
          the benchmark in [perfbench/] reads it. *)
  coverage : float;
}

val atpg_summary_of : Atpg.Pattern_gen.outcome -> atpg_summary

val atpg_status : atpg_summary -> string
(** ["complete"] when every fault was resolved, ["aborted_faults"]
    when the backtrack limit cut some off. An abort degrades coverage
    but never fails the flow — reports carry this status instead. *)

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

val evaluate : ?seed:int -> prepared -> comparison
(** Measure traditional scan, enhanced scan, input control and the
    proposed structure on the prepared vectors. [seed] (default 42)
    seeds the C-algorithm ([seed + 1]) and the IVC fill ([seed + 2]).
    On return it samples the [flow.peak_heap_words] max-gauge. *)

val run_benchmark :
  ?atpg_config:Atpg.Pattern_gen.config ->
  ?seed:int ->
  Circuit.t ->
  comparison
(** [prepare] followed by [evaluate]. *)

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
