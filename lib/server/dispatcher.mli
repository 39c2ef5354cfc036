(** Request execution: one {!Protocol.request} in, one JSON value or
    one structured error out. The daemon loop owns admission and
    framing; this module owns the semantics of each request kind and
    the warm {!Scanpower.Registry} they share.

    Bit-identity contract: a [flow] request computes exactly what the
    one-shot [scanpower power] CLI computes for the same (circuit,
    seed) — the registry only elides the deterministic
    prepare — and a [sweep-point] request goes through the real
    {!Scanpower.Sweep} machinery so even the chaos injector's per-job
    keying matches the CLI. Both are pinned by golden tests. *)

type t

val create :
  ?registry_capacity:int ->
  ?generation:int ->
  unit ->
  t
(** Fresh dispatcher with an empty registry (default capacity 32).

    A {!Protocol.Fork_isolation} request that names a circuit always
    runs in a forked, killable worker; the count is exposed as
    ["parallel"]["forked"] in the [stats] value.

    [generation] (default 0) is the supervisor restart generation:
    echoed in [health]/[stats] values and folded into the
    [Worker_kill] fault-injection roll key, so a chaos spec that kills
    generation N deterministically spares the restarted N+1. *)

val registry : t -> Scanpower.Registry.t

val generation : t -> int

val handle :
  t ->
  ?extra:(string * Telemetry.Json.t) list ->
  ?deadline_left:float ->
  Protocol.request ->
  (Telemetry.Json.t, Scanpower_errors.t) result
(** Execute one request. [extra] fields are appended to [health] and
    [stats] values (the daemon adds queue depth and request
    counters). [deadline_left] is the remaining per-request budget —
    enforced as a hard worker timeout under {!Protocol.Fork_isolation},
    advisory otherwise. Never raises: every failure, including a
    crashed isolated worker, comes back as a structured error.

    Requests carrying an idempotency key ([idem]) are deduped: the
    first Ok response is stored (bounded FIFO, 1024 keys) and returned
    verbatim — [idem_executions] field included — to any replay, so a
    client retrying after a torn connection never double-executes.
    Errors are never stored; a replay after a failure re-executes. *)
