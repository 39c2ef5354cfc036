module Json = Telemetry.Json
module E = Scanpower_errors

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* connect/replay pacing: the runner's exponential backoff with
   deterministic jitter, so a fleet of clients reconnecting to a
   restarted daemon does not arrive in lockstep yet every chaos run
   replays exactly *)
let backoff_delay_s ~id ~attempt =
  Runner.retry_delay_s ~base_s:0.05 ~cap_s:2.0 ~id ~attempt

let connect ?(retry_for_s = 0.0) path =
  let deadline = Unix.gettimeofday () +. retry_for_s in
  let rec attempt n =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with _ -> ());
      let now = Unix.gettimeofday () in
      if now < deadline then begin
        (* daemon still starting (or restarting under supervision):
           back off until the bind lands *)
        let delay = backoff_delay_s ~id:path ~attempt:n in
        Unix.sleepf (Float.min (Float.max delay 0.01) (deadline -. now));
        attempt (n + 1)
      end
      else
        E.raise_error ~code:E.Io ~stage:"client.connect"
          (Printf.sprintf "cannot connect to %S: %s" path
             (Unix.error_message e))
  in
  attempt 1

let close t =
  (try flush t.oc with _ -> ());
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with _ -> ());
  try Unix.close t.fd with _ -> ()

let send t req =
  Telemetry.Events.write_json_line t.oc (Protocol.request_to_json req)

let send_raw t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

(* Read response lines until the result or error belonging to [id].
   Event lines are forwarded to [on_event]; responses for other ids
   (pipelined requests) are forwarded to [on_other]. A protocol-level
   error line carries a null id and terminates the wait too: it is the
   daemon's answer to the line we just sent. *)
let read_response ?(on_event = fun _ -> ()) ?(on_other = fun _ -> ()) t ~id =
  let rec loop () =
    match input_line t.ic with
    | exception End_of_file ->
      Error
        (E.make ~code:E.Io ~stage:"client.read"
           "connection closed before a response arrived")
    | line -> (
      match Json.of_string line with
      | Error msg ->
        Error
          (E.make ~code:E.Parse ~stage:"client.read"
             ("malformed response line: " ^ msg))
      | Ok json -> (
        let line_id =
          match Json.member "id" json with
          | Some (Json.String s) -> Some s
          | _ -> None
        in
        match Json.member "type" json with
        | Some (Json.String "event") ->
          if line_id = Some id then on_event json else on_other json;
          loop ()
        | Some (Json.String "result") when line_id = Some id ->
          (match Json.member "value" json with
          | Some v -> Ok v
          | None ->
            Error
              (E.make ~code:E.Parse ~stage:"client.read"
                 "result line without a value"))
        | Some (Json.String "error") when line_id = Some id || line_id = None
          -> (
          match Json.member "error" json with
          | Some err -> (
            match E.of_json err with
            | Ok e -> Error e
            | Error msg ->
              Error
                (E.make ~code:E.Parse ~stage:"client.read"
                   ("malformed error payload: " ^ msg)))
          | None ->
            Error
              (E.make ~code:E.Parse ~stage:"client.read"
                 "error line without an error payload"))
        | _ ->
          on_other json;
          loop ()))
  in
  loop ()

let rpc ?on_event t req =
  send t req;
  read_response ?on_event t ~id:req.Protocol.id

(* ---- resilient session: reconnect + replay ---- *)

type session = {
  path : string;
  retry_for_s : float;
  nonce : int; (* unique per session within the process *)
  mutable conn : t option;
  mutable calls : int;
  mutable replays : int;
}

let sessions_made = ref 0

let session ?(retry_for_s = 10.0) path =
  incr sessions_made;
  { path; retry_for_s; nonce = !sessions_made; conn = None; calls = 0;
    replays = 0 }

let session_replays s = s.replays

let drop_conn s =
  match s.conn with
  | Some c ->
    s.conn <- None;
    close c
  | None -> ()

let close_session s = drop_conn s

let conn_of s ~deadline =
  match s.conn with
  | Some c -> c
  | None ->
    let c =
      connect ~retry_for_s:(Float.max 0.0 (deadline -. Unix.gettimeofday ()))
        s.path
    in
    s.conn <- Some c;
    c

(* Failures that mean "the transport broke, not the request": a torn
   or reset connection on send, EOF or a malformed (torn) line on
   read. These are safe to replay — the idempotency key guarantees at
   most one execution even if the daemon had already answered into the
   void. *)
let transport_error (e : E.t) =
  (match e.E.code with E.Io | E.Parse -> true | _ -> false)
  && (e.E.stage = "client.read" || e.E.stage = "client.connect")

let retryable (e : E.t) =
  match e.E.code with E.Overloaded | E.Degraded -> true | _ -> false

(* One request, survived to completion: reconnect and replay on
   transport failure, back off and re-send on retryable daemon errors
   (overloaded / degraded), propagate the shrinking deadline, and
   auto-attach an idempotency key so no replay double-executes. The
   key is pid, session nonce, call number and id: without the nonce two
   sessions of one process sending one id on the same call number
   would share a key, and the second would get the first one's reply. *)
let call ?on_event s req =
  s.calls <- s.calls + 1;
  let req =
    match req.Protocol.idem with
    | Some _ -> req
    | None ->
      { req with
        Protocol.idem =
          Some
            (Printf.sprintf "%d-%d-%d-%s" (Unix.getpid ()) s.nonce s.calls
               req.Protocol.id);
      }
  in
  let window =
    match req.Protocol.deadline_s with
    | Some d -> Float.min d s.retry_for_s
    | None -> s.retry_for_s
  in
  let deadline = Unix.gettimeofday () +. window in
  let rec attempt n =
    let remaining = deadline -. Unix.gettimeofday () in
    if n > 1 && remaining <= 0.0 then
      Error
        (E.make ~code:E.Deadline ~stage:"client.call"
           (Printf.sprintf "request not served within %.3fs (%d attempts)"
              window (n - 1)))
    else begin
      let req =
        match req.Protocol.deadline_s with
        | Some _ -> { req with Protocol.deadline_s = Some (Float.max 0.001 remaining) }
        | None -> req
      in
      let result =
        try
          let c = conn_of s ~deadline in
          rpc ?on_event c req
        with
        | E.Error e -> Error e
        | Sys_error msg -> Error (E.make ~code:E.Io ~stage:"client.read" msg)
        | End_of_file ->
          Error
            (E.make ~code:E.Io ~stage:"client.read"
               "connection closed before a response arrived")
        | Unix.Unix_error (e, _, _) ->
          Error (E.make ~code:E.Io ~stage:"client.read" (Unix.error_message e))
      in
      match result with
      | Ok v -> Ok v
      | Error e when transport_error e ->
        drop_conn s;
        s.replays <- s.replays + 1;
        let delay = backoff_delay_s ~id:req.Protocol.id ~attempt:n in
        Unix.sleepf (Float.min (Float.max delay 0.01) (Float.max 0.0 (deadline -. Unix.gettimeofday ())));
        attempt (n + 1)
      | Error e when retryable e ->
        s.replays <- s.replays + 1;
        let delay = backoff_delay_s ~id:req.Protocol.id ~attempt:n in
        Unix.sleepf (Float.min (Float.max delay 0.01) (Float.max 0.0 (deadline -. Unix.gettimeofday ())));
        attempt (n + 1)
      | Error _ as err -> err
    end
  in
  attempt 1
