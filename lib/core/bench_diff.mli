(** Regression gate over two [BENCH_kernels.json] files.

    Compares every metric the baseline and the new file share, circuit
    by circuit, with per-class noise thresholds:

    - {e counts} (no recognised suffix — nodes, faults, toggles, ...)
      must match exactly: any drift means the two runs did not compute
      the same thing;
    - {e times} ([_s] suffix) regress when
      [new > old * (1 + time_threshold)];
    - {e rates} ([_speedup] / [_events_s] suffixes, higher is better)
      regress when [new < old * (1 - rate_threshold)].

    Accepts the [scanpower.bench_kernels/3] and [/4] schemas and pairs
    their shared metrics, so a /3 baseline gates a /4 run. /4 only
    dropped metrics (the PPSFP and domain-sharded fault-sim fields and
    [domains]); a /3 baseline that still carries them reports them
    missing.

    Both thresholds default to [0.5] (±50%), loose enough to absorb
    run-to-run noise on one machine while still catching a 2x
    slowdown; CI across machines passes an explicitly wider
    [time_threshold]. A metric present only in the baseline counts as
    a regression (coverage loss); circuits or metrics present only in
    the new file are additions and pass. *)

type value = I of int | F of float

type file = {
  fast : bool;  (** the writer's reduced-reps flag *)
  circuits : (string * (string * value) list) list;
}

val load : string -> file
(** Parse a [BENCH_kernels.json]; raises {!Scanpower_errors.Error}
    ([Io] / [Parse]) on unreadable or malformed input, including a
    schema mismatch. *)

type kind = Count | Time | Rate

val kind_of_metric : string -> kind
(** Suffix convention: [_speedup]/[_events_s] → [Rate], other [_s] →
    [Time], everything else → [Count].
    Gate-bearing rates are additionally pinned by literal name
    ([serve_warm_speedup]) so the serve stage's amortisation contract
    is gated even if the suffix convention drifts. *)

type finding = {
  f_circuit : string;
  f_metric : string;
  f_kind : kind;
  f_old : value;
  f_new : value;
  f_delta_pct : float option;  (** [None] when the baseline is zero *)
  f_regressed : bool;
}

type report = {
  findings : finding list;  (** every compared metric, regressed first *)
  compared : int;
  regressions : finding list;
  fast_mismatch : bool;
  only_old_circuits : string list;
  only_new_circuits : string list;
  only_old_metrics : (string * string) list;  (** (circuit, metric) *)
}

val diff : ?time_threshold:float -> ?rate_threshold:float -> file -> file -> report
(** [diff baseline current]. *)

val has_regression : report -> bool
(** True when any shared metric regressed or a baseline metric is
    missing from the new file — the condition under which the CLI
    exits with code 6. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable table, one line per compared metric (regressions
    first), followed by notes and a summary line. *)

val report_to_json : report -> Telemetry.Json.t
