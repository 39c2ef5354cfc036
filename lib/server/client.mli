(** Blocking client for the daemon {!Protocol} — the [scanpower
    client] subcommand, the tests and the warm-registry benchmark all
    drive the daemon through this. *)

type t

val connect : ?retry_for_s:float -> string -> t
(** Connect to a daemon socket path. [retry_for_s] keeps retrying a
    not-yet-bound path for that many seconds — the daemon-startup race
    in scripts and tests, and the restart window under supervision —
    paced by the runner's exponential backoff with deterministic
    jitter. Raises {!Scanpower_errors.Error} (code [Io]) on
    failure. *)

val close : t -> unit

val send : t -> Protocol.request -> unit
(** One request line, flushed; does not wait. *)

val send_raw : t -> string -> unit
(** An arbitrary line, flushed — for protocol-robustness tests. *)

val read_response :
  ?on_event:(Telemetry.Json.t -> unit) ->
  ?on_other:(Telemetry.Json.t -> unit) ->
  t ->
  id:string ->
  (Telemetry.Json.t, Scanpower_errors.t) result
(** Read lines until the ["result"] (its ["value"] is returned) or
    ["error"] (re-materialized via {!Scanpower_errors.of_json}) for
    [id]. Event lines for [id] go to [on_event]; anything else —
    pipelined responses for other ids — to [on_other]. A daemon error
    line with a null id (a protocol-level rejection) also terminates
    the wait. EOF before a response is an [Io] error. *)

val rpc :
  ?on_event:(Telemetry.Json.t -> unit) ->
  t ->
  Protocol.request ->
  (Telemetry.Json.t, Scanpower_errors.t) result
(** {!send} then {!read_response}. *)

(** {1 Resilient sessions}

    A {!session} survives what a bare {!t} cannot: a torn write, a
    reset connection, a daemon restarting under its supervisor, a
    degraded daemon shedding load. {!call} reconnects and replays on
    transport failure and backs off and re-sends on [overloaded] /
    [degraded] — all under one deadline window — and attaches an
    idempotency key so the dispatcher never executes a replay
    twice. *)

type session

val session : ?retry_for_s:float -> string -> session
(** A lazily-connected resilient handle to a daemon socket path.
    [retry_for_s] (default 10) bounds each {!call}'s total
    retry window — connects, replays and backoff included. *)

val call :
  ?on_event:(Telemetry.Json.t -> unit) ->
  session ->
  Protocol.request ->
  (Telemetry.Json.t, Scanpower_errors.t) result
(** One request to completion. A request carrying [deadline_s]
    propagates its shrinking remainder on every replay and the window
    is capped by it; a request without [idem] gets a key
    auto-attached that is unique to this session and call. Returns the
    first non-retryable outcome, or a [deadline] error when the window
    closes. *)

val session_replays : session -> int
(** How many reconnect-replays and retryable-error re-sends this
    session has performed (chaos-test observability). *)

val close_session : session -> unit
(** Drop the session's connection, if any. *)
