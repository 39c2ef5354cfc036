(** Parallel job runner: fan a batch of independent jobs out over a
    pool of forked worker processes, with a content-addressed result
    cache, per-job timeout and retry, and crash
    isolation — a worker dying on one job never takes the batch down.

    The unit of work is a {!job}: an id, an optional cache key, and a
    closure producing a JSON value. With [jobs > 1] each attempt runs
    in a freshly forked child ([Unix.fork] + a pipe), so a segfault,
    [exit], OOM kill or runaway loop in one job is contained and
    simply retried; [jobs = 1] (or a non-Unix host) degrades to
    in-process sequential execution where only exceptions are
    containable. Results come back over the pipe as one JSON line per
    worker, length-unbounded (the parent drains pipes with [select]
    while workers run, so a large result cannot deadlock the pool).

    Resilience knobs, all defaulting to the forgiving PR-2 behaviour:
    retries wait [backoff_s * 2^(attempt-1)] (capped at
    [backoff_max_s]) scaled by a deterministic per-(job, attempt)
    jitter in [0.5, 1.0); [deadline_s > 0] bounds the {e whole batch}
    — when it expires, live workers are reaped and every unfinished
    job fails with [Deadline_exceeded]; a job failing with the {e same}
    failure string [poison_threshold] times in a row is quarantined
    (failed with [quarantined = true], no further retries) instead of
    burning the retry budget on a deterministic crasher; with
    [handle_signals], SIGINT/SIGTERM reap all children and return the
    partial results ([Interrupted] failures) instead of killing the
    process, so callers can still flush a report.

    When a {!Cache.t} is supplied, jobs whose key hits are answered
    without spawning anything, and freshly computed values are stored
    on completion — so an identical re-run does zero recomputation.
    Each value is stored the moment its job finishes, so the cache is
    also the checkpoint: re-running a batch that was killed mid-run
    recomputes only the jobs that had not finished.

    Chaos engineering: the worker paths honour the {!Fault_inject}
    sites ([Child_crash], [Child_exit], [Child_hang],
    [Truncated_write]; the cache honours [Corrupt_cache]) so every
    recovery path above can be exercised deterministically in tests.

    Telemetry: with [capture_telemetry] each worker resets + enables
    telemetry around its job and ships the resulting metrics snapshot
    (span tree, counters) back beside the value; pool-level counts are
    mirrored into the process-wide telemetry counters
    ([runner.jobs.scheduled], [runner.jobs.computed],
    [runner.cache.hit], [runner.cache.miss],
    [runner.worker.crash], [runner.worker.timeout],
    [runner.worker.quarantined], [runner.retry], [runner.jobs.failed],
    [runner.interrupted]) when telemetry is enabled. In sequential
    mode the capture necessarily resets the {e global} telemetry state
    around every job; callers that interleave their own spans with a
    sequential captured run should expect them to be cleared. *)

module Cache : module type of Cache
module Fault_inject : module type of Fault_inject

type job = {
  id : string;  (** for events and reports; need not be unique *)
  cache_key : string option;  (** [None] = never cached *)
  run : attempt:int -> Telemetry.Json.t;
      (** The work. [attempt] is 1-based and increments on retry.
          Runs in a forked child when [jobs > 1]. *)
}

type failure =
  | Crashed of string  (** worker died: signal, nonzero exit, garbled reply *)
  | Timed_out
  | Job_error of string  (** the closure raised *)
  | Interrupted  (** batch stopped by SIGINT/SIGTERM before this job finished *)
  | Deadline_exceeded  (** batch deadline expired before this job finished *)

val failure_to_string : failure -> string

type outcome =
  | Done of {
      value : Telemetry.Json.t;
      telemetry : Telemetry.Json.t option;
          (** the worker's metrics snapshot (or the one stored beside
              a cached value) when capture is on *)
      from_cache : bool;  (** served by the cache *)
      attempts : int;  (** 0 when served from cache *)
      duration_s : float;  (** wall clock of the successful attempt *)
    }
  | Failed of {
      attempts : int;
      last : failure;
      quarantined : bool;
          (** stopped by poison detection rather than retry exhaustion *)
    }

type result = { job : job; outcome : outcome }

type event =
  | Started of { job : job; attempt : int }
  | Attempt_failed of {
      job : job;
      attempt : int;
      failure : failure;
      will_retry : bool;
    }
  | Finished of { job : job; outcome : outcome }
      (** exactly once per job, cache hits included *)

type stats = {
  scheduled : int;  (** total jobs submitted *)
  cache_hits : int;
  cache_misses : int;  (** jobs that had a key but no entry *)
  computed : int;  (** attempts that produced a value *)
  crashes : int;
  timeouts : int;
  retries : int;
  quarantined : int;  (** jobs stopped by poison detection *)
  failed : int;  (** jobs with no value after all attempts *)
  interrupted : bool;  (** the batch was cut short by SIGINT/SIGTERM *)
}

val stats_to_json : stats -> Telemetry.Json.t

type config = {
  jobs : int;
      (** max concurrent workers; [<= 1] (or a non-Unix host) runs
          every attempt in-process, sequentially *)
  timeout_s : float;  (** per attempt; [<= 0] = none (forked mode only) *)
  retries : int;  (** extra attempts after the first *)
  backoff_s : float;
      (** base retry delay; [<= 0] = retry immediately (the default) *)
  backoff_max_s : float;  (** cap on the exponential backoff *)
  deadline_s : float;  (** whole-batch budget; [<= 0] = none *)
  poison_threshold : int;
      (** consecutive identical failures before quarantine; [<= 0] = off *)
  handle_signals : bool;
      (** catch SIGINT/SIGTERM, reap children, return partial results *)
  cache : Cache.t option;
  capture_telemetry : bool;
  on_event : event -> unit;  (** called in the parent, in scheduling order *)
}

val default_config : config
(** [jobs = 1], no timeout, [retries = 1], no backoff, no deadline,
    [poison_threshold = 3], signals not handled, no cache, no capture,
    events ignored. *)

val retry_delay_s : config -> id:string -> attempt:int -> float
(** The exact delay inserted before the retry that follows failed
    [attempt] of job [id] — deterministic, exposed for tests. *)

val run : ?config:config -> job list -> result list * stats
(** Run every job; results come back in submission order regardless of
    completion order. Never raises for a job-level failure — those are
    [Failed] outcomes; [run] itself only raises on pool-level misuse
    (and then reaps every live worker first). *)
