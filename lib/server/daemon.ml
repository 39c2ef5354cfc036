module Json = Telemetry.Json
module E = Scanpower_errors
module Events = Telemetry.Events
module Registry = Scanpower.Registry

(* request lifecycle counters; the gauge tracks instantaneous depth *)
let c_received = Telemetry.Counter.make "server.requests.received"
let c_ok = Telemetry.Counter.make "server.requests.ok"
let c_error = Telemetry.Counter.make "server.requests.error"
let c_overloaded = Telemetry.Counter.make "server.requests.overloaded"
let c_deadline = Telemetry.Counter.make "server.requests.deadline"
let c_abandoned = Telemetry.Counter.make "server.requests.abandoned"
let c_degraded = Telemetry.Counter.make "server.requests.degraded"
let c_disconnects = Telemetry.Counter.make "server.client_disconnects"
let c_protocol_errors = Telemetry.Counter.make "server.protocol_errors"
let g_queue_depth = Telemetry.Gauge.make "server.queue_depth"
let g_heap_words = Telemetry.Gauge.make "server.heap_words"
let g_degraded = Telemetry.Gauge.make "server.degraded"
let h_request_s = Telemetry.Histogram.make "server.request_s"
let h_queue_wait_s = Telemetry.Histogram.make "server.queue_wait_s"

type config = {
  socket : string;
  registry_capacity : int;
  max_queue : int;
  max_request_bytes : int;
  default_deadline_s : float;
  log : out_channel option;
  snapshot_path : string option;
  snapshot_every_s : float;
  max_heap_mw : float;
  generation : int;
}

let default_config =
  {
    socket = Protocol.default_socket ();
    registry_capacity = 32;
    max_queue = 64;
    max_request_bytes = Protocol.max_line_default;
    default_deadline_s = 0.0;
    log = None;
    snapshot_path = None;
    snapshot_every_s = 0.0;
    max_heap_mw = 0.0;
    generation = 0;
  }

type conn = {
  fd : Unix.file_descr;
  oc : out_channel;  (** same descriptor; closing [oc] closes [fd] *)
  mutable pending : string;  (** bytes read but not yet newline-framed *)
  mutable closed : bool;
}

(* memory-pressure state machine: Normal → Trimmed (registry LRU cut
   and heap compacted) → Degraded (shedding compute) and back down
   through hysteresis *)
type pressure = Normal | Trimmed | Degraded

type queued = {
  q_conn : conn;
  q_req : Protocol.request;
  q_enqueued_at : float;
}

type t = {
  config : config;
  dispatcher : Dispatcher.t;
  listen_fd : Unix.file_descr;
  mutable conns : conn list;
  queue : queued Queue.t;
  mutable stop : bool;
  started_at : float;
  mutable received : int;
  mutable ok : int;
  mutable errors : int;
  mutable overloaded : int;
  mutable deadlines : int;
  mutable shed : int;
  mutable pressure : pressure;
  mutable warm_restored : int;
  mutable last_snapshot : float;
  mutable writes : int;  (** torn-write roll sequence *)
  mutable reads : int;  (** stall-read roll sequence *)
  mutable ballast : (float * float array) list;
      (** injected heap spikes: (expiry, pinned allocation) *)
}

let log t json =
  match t.config.log with
  | Some oc -> (try Events.write_json_line oc json with _ -> ())
  | None -> ()

let close_conn t conn =
  if not conn.closed then begin
    conn.closed <- true;
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    try close_out_noerr conn.oc with _ -> ()
  end

(* every byte to a client goes through the shared NDJSON writer; a
   dead peer (EPIPE with SIGPIPE ignored, reset, ...) is a clean
   close, never a daemon failure *)
let write_line t conn json =
  if not conn.closed then begin
    t.writes <- t.writes + 1;
    let torn_key =
      Printf.sprintf "%s#w%d"
        (match Json.member "id" json with
        | Some (Json.String id) -> id
        | _ -> "-")
        t.writes
    in
    if Runner.Fault_inject.fires Runner.Fault_inject.Torn_write ~key:torn_key
    then begin
      (* emit a prefix of the frame, then hang up: the client sees a
         torn line and must reconnect + replay *)
      let s = Json.to_string json in
      (try
         output_string conn.oc (String.sub s 0 (String.length s / 2));
         flush conn.oc
       with _ -> ());
      close_conn t conn
    end
    else
      try Events.write_json_line conn.oc json
      with _ ->
        Telemetry.Counter.inc c_disconnects;
        close_conn t conn
  end

let protocol_error t conn ?id err =
  Telemetry.Counter.inc c_protocol_errors;
  write_line t conn (Protocol.error_line ?id err)

let set_queue_gauge t =
  if Telemetry.enabled () then
    Telemetry.Gauge.set g_queue_depth (float_of_int (Queue.length t.queue))

(* ---- admission ---- *)

let admit t conn line =
  match Json.of_string line with
  | Error msg ->
    protocol_error t conn
      (E.make ~code:E.Parse ~stage:"server.protocol"
         ("request is not valid JSON: " ^ msg))
  | Ok json -> (
    let id = Protocol.request_id json in
    match Protocol.parse_request json with
    | Error err -> protocol_error t conn ?id err
    | Ok req ->
      t.received <- t.received + 1;
      Telemetry.Counter.inc c_received;
      let compute_heavy =
        match req.Protocol.kind with
        | Protocol.Flow | Protocol.Atpg | Protocol.Sweep_point -> true
        | Protocol.Validate | Protocol.Health | Protocol.Stats -> false
      in
      if t.pressure = Degraded && compute_heavy then begin
        (* shed at admission: cheap requests (health/stats/validate)
           keep flowing so operators can watch the recovery *)
        t.shed <- t.shed + 1;
        Telemetry.Counter.inc c_degraded;
        write_line t conn
          (Protocol.error_line ~id:req.Protocol.id
             (E.make ~code:E.Degraded ~stage:"server.admission"
                (Printf.sprintf
                   "shedding %s requests under memory pressure (heap \
                    budget %.1f MW); retry after backoff"
                   (Protocol.kind_to_string req.Protocol.kind)
                   t.config.max_heap_mw)))
      end
      else if Queue.length t.queue >= t.config.max_queue then begin
        t.overloaded <- t.overloaded + 1;
        Telemetry.Counter.inc c_overloaded;
        write_line t conn
          (Protocol.error_line ~id:req.Protocol.id
             (E.make ~code:E.Overloaded ~stage:"server.admission"
                (Printf.sprintf
                   "admission queue full (%d queued); retry after backoff"
                   (Queue.length t.queue))))
      end
      else begin
        let req =
          match (req.Protocol.deadline_s, t.config.default_deadline_s) with
          | None, d when d > 0.0 -> { req with Protocol.deadline_s = Some d }
          | _ -> req
        in
        Queue.add
          { q_conn = conn; q_req = req; q_enqueued_at = Unix.gettimeofday () }
          t.queue;
        set_queue_gauge t
      end)

(* a frame past the cap is answered with [validation] and the
   connection is dropped — not merely skipped-to-newline, which would
   leave the buffer regrowing without bound on a newline-less stream *)
let oversize t conn =
  protocol_error t conn
    (E.make ~code:E.Validation ~stage:"server.protocol"
       (Printf.sprintf
          "request line exceeds %d bytes; connection closed (raise \
           --max-request-bytes to ship larger netlists)"
          t.config.max_request_bytes));
  conn.pending <- "";
  close_conn t conn

(* split newly buffered bytes into complete lines, enforcing the
   request-size cap; a torn trailing fragment stays pending until more
   bytes or EOF (where it is silently discarded — the request never
   completed) *)
let feed t conn chunk =
  conn.pending <- conn.pending ^ chunk;
  let continue = ref true in
  while !continue && not conn.closed do
    match String.index_opt conn.pending '\n' with
    | Some i ->
      let line = String.sub conn.pending 0 i in
      conn.pending <-
        String.sub conn.pending (i + 1) (String.length conn.pending - i - 1);
      if String.length line > t.config.max_request_bytes then
        (* a complete line can also blow the cap when it arrives
           whole inside one read *)
        oversize t conn
      else if String.trim line <> "" then admit t conn line
    | None ->
      if String.length conn.pending > t.config.max_request_bytes then
        oversize t conn;
      continue := false
  done

let read_conn t conn =
  t.reads <- t.reads + 1;
  if
    Runner.Fault_inject.fires Runner.Fault_inject.Stall_read
      ~key:(Printf.sprintf "r%d" t.reads)
  then
    (* a slow-loris-shaped delay: ready bytes sit unread briefly; the
       loop must stay responsive for every other connection *)
    Unix.sleepf 0.05;
  if
    Runner.Fault_inject.fires Runner.Fault_inject.Heap_spike
      ~key:(Printf.sprintf "h%d" t.reads)
  then
    (* pin ~32 MB for a few seconds to drive the memory watchdog *)
    t.ballast <-
      (Unix.gettimeofday () +. 3.0, Array.make (4 * 1024 * 1024) 0.0)
      :: t.ballast;
  let buf = Bytes.create 65536 in
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | 0 -> close_conn t conn
  | n -> feed t conn (Bytes.sub_string buf 0 n)
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    Telemetry.Counter.inc c_disconnects;
    close_conn t conn
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* ---- request processing ---- *)

let request_counters t =
  Json.Obj
    [
      ("received", Json.Int t.received);
      ("ok", Json.Int t.ok);
      ("error", Json.Int t.errors);
      ("overloaded", Json.Int t.overloaded);
      ("deadline", Json.Int t.deadlines);
      ("degraded", Json.Int t.shed);
    ]

let extra t =
  [ ("queue_depth", Json.Int (Queue.length t.queue));
    ("degraded", Json.Bool (t.pressure = Degraded));
    ("warm_restored", Json.Int t.warm_restored);
    ("requests", request_counters t) ]

let process_one t =
  match Queue.take_opt t.queue with
  | None -> ()
  | Some { q_conn = conn; q_req = req; q_enqueued_at } ->
    set_queue_gauge t;
    let now = Unix.gettimeofday () in
    let waited = now -. q_enqueued_at in
    Telemetry.Histogram.observe h_queue_wait_s waited;
    if conn.closed then
      (* the client is gone: don't burn compute on an answer nobody
         will read *)
      Telemetry.Counter.inc c_abandoned
    else begin
      let deadline_left =
        Option.map (fun d -> d -. waited) req.Protocol.deadline_s
      in
      match deadline_left with
      | Some left when left <= 0.0 ->
        t.deadlines <- t.deadlines + 1;
        Telemetry.Counter.inc c_deadline;
        write_line t conn
          (Protocol.error_line ~id:req.Protocol.id
             (E.make ~code:E.Deadline ~stage:"server.admission"
                (Printf.sprintf
                   "deadline %.3fs expired after %.3fs in the queue"
                   (Option.get req.Protocol.deadline_s) waited)))
      | _ ->
        let sub =
          if req.Protocol.stream then
            Some
              (Events.subscribe (fun ev ->
                   write_line t conn
                     (Protocol.event_line ~id:req.Protocol.id
                        (Events.to_json ev))))
          else None
        in
        Fun.protect
          ~finally:(fun () -> Option.iter Events.unsubscribe sub)
          (fun () ->
            Events.emit "server.request_started"
              [
                ("id", Json.String req.Protocol.id);
                ("kind",
                 Json.String (Protocol.kind_to_string req.Protocol.kind));
                ("queue_wait_s", Json.Float waited);
              ];
            let t0 = Unix.gettimeofday () in
            let result =
              Dispatcher.handle t.dispatcher ~extra:(extra t) ?deadline_left
                req
            in
            let dt = Unix.gettimeofday () -. t0 in
            Telemetry.Histogram.observe h_request_s dt;
            Events.emit "server.request_finished"
              [
                ("id", Json.String req.Protocol.id);
                ("ok",
                 Json.Bool (match result with Ok _ -> true | Error _ -> false));
                ("duration_s", Json.Float dt);
              ];
            match result with
            | Ok value ->
              t.ok <- t.ok + 1;
              Telemetry.Counter.inc c_ok;
              write_line t conn
                (Protocol.result_line ~id:req.Protocol.id
                   ~kind:req.Protocol.kind value)
            | Error err ->
              t.errors <- t.errors + 1;
              (match err.E.code with
              | E.Deadline ->
                t.deadlines <- t.deadlines + 1;
                Telemetry.Counter.inc c_deadline
              | _ -> Telemetry.Counter.inc c_error);
              write_line t conn
                (Protocol.error_line ~id:req.Protocol.id err))
    end

(* ---- memory-pressure watchdog ---- *)

(* Driven by [Gc.quick_stat] (O(1), safe every loop iteration) against
   the [--max-heap-mw] budget. Escalation: over budget → cut the
   registry LRU in half and compact; still over → stop admitting
   compute-heavy requests ([degraded]); back under 0.9× budget →
   recover. The hysteresis band stops the daemon flapping between
   degraded and healthy at the boundary. *)
let check_memory t =
  let now = Unix.gettimeofday () in
  t.ballast <- List.filter (fun (expiry, _) -> expiry > now) t.ballast;
  if t.config.max_heap_mw > 0.0 then begin
    let words = float_of_int (Gc.quick_stat ()).Gc.heap_words in
    if Telemetry.enabled () then Telemetry.Gauge.set g_heap_words words;
    let budget = t.config.max_heap_mw *. 1e6 in
    match t.pressure with
    | Normal ->
      if words > budget then begin
        let registry = Dispatcher.registry t.dispatcher in
        let entries = (Registry.stats registry).Registry.s_entries in
        let evicted = Registry.trim registry ~keep:(entries / 2) in
        Gc.full_major ();
        t.pressure <- Trimmed;
        Events.emit "server.memory_pressure"
          [
            ("action", Json.String "trim");
            ("heap_words", Json.Float words);
            ("budget_words", Json.Float budget);
            ("evicted", Json.Int evicted);
          ];
        log t
          (Json.Obj
             [
               ("event", Json.String "server.memory_pressure");
               ("action", Json.String "trim");
               ("evicted", Json.Int evicted);
             ])
      end
    | Trimmed ->
      if words > budget then begin
        t.pressure <- Degraded;
        if Telemetry.enabled () then Telemetry.Gauge.set g_degraded 1.0;
        Events.emit "server.memory_pressure"
          [
            ("action", Json.String "degrade");
            ("heap_words", Json.Float words);
            ("budget_words", Json.Float budget);
          ];
        log t
          (Json.Obj
             [
               ("event", Json.String "server.memory_pressure");
               ("action", Json.String "degrade");
             ])
      end
      else if words < 0.9 *. budget then t.pressure <- Normal
    | Degraded ->
      if words < 0.9 *. budget then begin
        t.pressure <- Normal;
        if Telemetry.enabled () then Telemetry.Gauge.set g_degraded 0.0;
        Events.emit "server.memory_pressure"
          [ ("action", Json.String "recover"); ("heap_words", Json.Float words) ];
        log t
          (Json.Obj
             [
               ("event", Json.String "server.memory_pressure");
               ("action", Json.String "recover");
             ])
      end
  end

(* ---- warm-registry snapshots ---- *)

let write_snapshot t ~reason =
  match t.config.snapshot_path with
  | None -> ()
  | Some path -> (
    t.last_snapshot <- Unix.gettimeofday ();
    match Registry.snapshot (Dispatcher.registry t.dispatcher) ~path with
    | entries ->
      log t
        (Json.Obj
           [
             ("event", Json.String "server.snapshot_written");
             ("path", Json.String path);
             ("entries", Json.Int entries);
             ("reason", Json.String reason);
           ])
    | exception _ ->
      (* an unwritable snapshot must never take the daemon down; the
         next tick retries *)
      log t
        (Json.Obj
           [
             ("event", Json.String "server.snapshot_failed");
             ("path", Json.String path);
             ("reason", Json.String reason);
           ]))

let snapshot_tick t =
  if
    t.config.snapshot_path <> None
    && t.config.snapshot_every_s > 0.0
    && Unix.gettimeofday () -. t.last_snapshot >= t.config.snapshot_every_s
  then write_snapshot t ~reason:"tick"

(* ---- the loop ---- *)

let accept_ready t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | fd, _ ->
    let conn =
      { fd; oc = Unix.out_channel_of_descr fd; pending = ""; closed = false }
    in
    t.conns <- conn :: t.conns
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()

let final_stats t =
  Json.Obj
    [
      ("event", Json.String "server.drained");
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
      ("requests", request_counters t);
      ("registry", Registry.stats_json (Dispatcher.registry t.dispatcher));
    ]

let create config =
  (* a stale socket file from a dead daemon would make bind fail; a
     live daemon keeps the path connectable, which we do not probe —
     two daemons on one path is an operator error surfaced by bind *)
  (try
     match (Unix.stat config.socket).Unix.st_kind with
     | Unix.S_SOCK -> (
       let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       match Unix.connect probe (Unix.ADDR_UNIX config.socket) with
       | () ->
         Unix.close probe;
         E.raise_error ~code:E.Io ~stage:"server.listen"
           (Printf.sprintf "socket %S is already being served"
              config.socket)
       | exception Unix.Unix_error _ ->
         Unix.close probe;
         Sys.remove config.socket)
     | _ ->
       E.raise_error ~code:E.Io ~stage:"server.listen"
         (Printf.sprintf "%S exists and is not a socket" config.socket)
   with Unix.Unix_error (Unix.ENOENT, _, _) | Sys_error _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind listen_fd (Unix.ADDR_UNIX config.socket)
   with Unix.Unix_error (e, _, _) ->
     Unix.close listen_fd;
     E.raise_error ~code:E.Io ~stage:"server.listen"
       (Printf.sprintf "cannot bind %S: %s" config.socket
          (Unix.error_message e)));
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let t =
    {
      config;
      dispatcher =
        Dispatcher.create ~registry_capacity:config.registry_capacity
          ~generation:config.generation ();
      listen_fd;
      conns = [];
      queue = Queue.create ();
      stop = false;
      started_at = Unix.gettimeofday ();
      received = 0;
      ok = 0;
      errors = 0;
      overloaded = 0;
      deadlines = 0;
      shed = 0;
      pressure = Normal;
      warm_restored = 0;
      last_snapshot = Unix.gettimeofday ();
      writes = 0;
      reads = 0;
      ballast = [];
    }
  in
  (match config.snapshot_path with
  | Some path when Sys.file_exists path ->
    t.warm_restored <- Registry.restore (Dispatcher.registry t.dispatcher) ~path;
    if t.warm_restored > 0 then
      log t
        (Json.Obj
           [
             ("event", Json.String "server.registry_restored");
             ("path", Json.String path);
             ("entries", Json.Int t.warm_restored);
           ])
  | _ -> ());
  t

let shutdown t =
  (* drain: answer everything already admitted, then hang up *)
  while not (Queue.is_empty t.queue) do
    process_one t
  done;
  write_snapshot t ~reason:"drain";
  let stats = final_stats t in
  Events.emit "server.drained" [ ("requests", request_counters t) ];
  (* push the tail of every --progress stream before the channels go
     away: the drained event above must reach its subscribers *)
  Events.flush_subscribers ();
  log t stats;
  List.iter (fun c -> try close_out_noerr c.oc with _ -> ()) t.conns;
  t.conns <- [];
  (try Unix.close t.listen_fd with _ -> ());
  (try Sys.remove t.config.socket with _ -> ());
  stats

let run ?(config = default_config) () =
  let t = create config in
  (* a client hanging up mid-response must be EPIPE-as-exception (a
     clean per-connection close), never a fatal signal *)
  let old_pipe =
    if Sys.unix then Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) else None
  in
  let request_stop _ = t.stop <- true in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle request_stop) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle request_stop) in
  log t
    (Json.Obj
       [
         ("event", Json.String "server.listening");
         ("socket", Json.String config.socket);
         ("pid", Json.Int (Unix.getpid ()));
         ("generation", Json.Int config.generation);
       ]);
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int;
      Option.iter (Sys.set_signal Sys.sigpipe) old_pipe)
    (fun () ->
      while not t.stop do
        let read_fds = t.listen_fd :: List.map (fun c -> c.fd) t.conns in
        let timeout = if Queue.is_empty t.queue then 0.2 else 0.0 in
        let ready =
          try
            let r, _, _ = Unix.select read_fds [] [] timeout in
            r
          with Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        if not t.stop then begin
          if List.memq t.listen_fd ready then accept_ready t;
          List.iter
            (fun conn ->
              if (not conn.closed) && List.memq conn.fd ready then
                read_conn t conn)
            t.conns;
          (* one request per iteration keeps accept/read latency
             bounded while a long flow computes *)
          process_one t;
          check_memory t;
          snapshot_tick t
        end
      done;
      shutdown t)
