(** The daemon loop: a single-threaded [select] server on a Unix-domain
    socket, speaking the line-delimited JSON {!Protocol}.

    Request lifecycle (the admission-control matrix is in DESIGN.md
    §11): a complete line is parsed and validated (failures are
    answered immediately as structured [parse]/[usage] errors, the
    connection stays open); a valid request enters the bounded
    admission queue — or is refused with code [overloaded] when the
    queue is full; at dequeue, a request whose deadline already
    expired while queued is answered with code [deadline]; otherwise
    it is dispatched (optionally streaming telemetry-bus events as
    ["event"] lines) and answered. One request is processed per loop
    iteration, so accepts and reads stay responsive while a flow
    computes.

    SIGTERM/SIGINT stop accepting, drain every admitted request,
    answer it, emit a final stats line (to [config.log] and the
    ["server.drained"] bus event), close all connections and unlink
    the socket. Client disconnects — mid-request, mid-response, EPIPE
    — close that connection only; SIGPIPE is ignored for the lifetime
    of {!run}.

    Telemetry: counters [server.requests.{received,ok,error,
    overloaded,deadline,abandoned}], [server.client_disconnects],
    [server.protocol_errors]; histograms [server.request_s],
    [server.queue_wait_s]; gauge [server.queue_depth] — beside the
    {!Scanpower.Registry} metrics. *)

type config = {
  socket : string;  (** path; an unserved stale file is replaced *)
  registry_capacity : int;
      (** warm machines kept resident in the one registry that
          [flow], [atpg] and [sweep-point] requests share *)
  max_queue : int;  (** admission bound; beyond it → [overloaded] *)
  max_request_bytes : int;
      (** request-frame cap in bytes; past it the request is answered
          with [validation] and the connection is dropped, so a
          newline-less stream cannot grow the buffer without bound *)
  default_deadline_s : float;
      (** applied to requests that carry none; [<= 0] = none *)
  log : out_channel option;
      (** operational NDJSON log (listening / drained lines) *)
  snapshot_path : string option;
      (** warm-registry snapshot file: restored at startup (corrupt or
          missing → cold start), written atomically on the SIGTERM
          drain and every [snapshot_every_s] *)
  snapshot_every_s : float;  (** periodic snapshot interval; [<= 0] = off *)
  max_heap_mw : float;
      (** heap budget in mega-words for the memory-pressure watchdog;
          [<= 0] = off. Over budget: trim the registry LRU and
          compact; still over: answer [flow]/[atpg]/[sweep-point] with
          [degraded]/9 while [health]/[stats]/[validate] keep flowing;
          under 0.9× budget: recover. *)
  generation : int;
      (** supervisor restart generation, echoed in [health]/[stats]
          and folded into the [Worker_kill] chaos roll key *)
}

val default_config : config
(** {!Protocol.default_socket}, capacity 32, queue 64,
    {!Protocol.max_line_default}, no default deadline, no log, no
    snapshot, no heap budget, generation 0. *)

val run : ?config:config -> unit -> Telemetry.Json.t
(** Serve until SIGTERM/SIGINT, then drain and return the final stats
    line. Raises {!Scanpower_errors.Error} (code [Io], stage
    ["server.listen"]) when the socket path cannot be bound — e.g. a
    live daemon already serves it. *)
