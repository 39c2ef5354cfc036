module Cache = Cache
module Fault_inject = Fault_inject
module Json = Telemetry.Json

type job = {
  id : string;
  cache_key : string option;
  run : attempt:int -> Json.t;
}

type failure =
  | Crashed of string
  | Timed_out
  | Job_error of string
  | Interrupted
  | Deadline_exceeded

let failure_to_string = function
  | Crashed msg -> Printf.sprintf "worker crashed (%s)" msg
  | Timed_out -> "timed out"
  | Job_error msg -> Printf.sprintf "job error: %s" msg
  | Interrupted -> "interrupted (SIGINT/SIGTERM)"
  | Deadline_exceeded -> "batch deadline exceeded"

type outcome =
  | Done of {
      value : Json.t;
      telemetry : Json.t option;
      from_cache : bool;
      attempts : int;
      duration_s : float;
    }
  | Failed of { attempts : int; last : failure; quarantined : bool }

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

type stats = {
  scheduled : int;
  cache_hits : int;
  cache_misses : int;
  computed : int;
  crashes : int;
  timeouts : int;
  retries : int;
  quarantined : int;
  failed : int;
  interrupted : bool;
}

let stats_to_json s =
  Json.Obj
    [
      ("scheduled", Json.Int s.scheduled);
      ("cache_hits", Json.Int s.cache_hits);
      ("cache_misses", Json.Int s.cache_misses);
      ("computed", Json.Int s.computed);
      ("crashes", Json.Int s.crashes);
      ("timeouts", Json.Int s.timeouts);
      ("retries", Json.Int s.retries);
      ("quarantined", Json.Int s.quarantined);
      ("failed", Json.Int s.failed);
      ("interrupted", Json.Bool s.interrupted);
    ]

type config = {
  jobs : int;
  timeout_s : float;
  retries : int;
  backoff_s : float;
  backoff_max_s : float;
  deadline_s : float;
  poison_threshold : int;
  handle_signals : bool;
  cache : Cache.t option;
  capture_telemetry : bool;
  on_event : event -> unit;
}

let default_config =
  {
    jobs = 1;
    timeout_s = 0.0;
    retries = 1;
    backoff_s = 0.0;
    backoff_max_s = 30.0;
    deadline_s = 0.0;
    poison_threshold = 3;
    handle_signals = false;
    cache = None;
    capture_telemetry = false;
    on_event = ignore;
  }

(* first 13 hex digits of the MD5 -> uniform-ish float in [0,1) *)
let hash01 s =
  let hex = Digest.to_hex (Digest.string s) in
  Int64.to_float (Int64.of_string ("0x" ^ String.sub hex 0 13))
  /. 4503599627370496.0 (* 16^13 *)

(* Exponential backoff with deterministic jitter: the delay after a
   given attempt of a given job is always the same number, so a chaos
   run replays exactly, yet two jobs failing together do not retry in
   lockstep. *)
let retry_delay_s cfg ~id ~attempt =
  if cfg.backoff_s <= 0.0 then 0.0
  else begin
    let base = cfg.backoff_s *. (2.0 ** float_of_int (max 0 (attempt - 1))) in
    let capped = Float.min cfg.backoff_max_s base in
    capped *. (0.5 +. (0.5 *. hash01 (Printf.sprintf "backoff|%s|%d" id attempt)))
  end

(* ------------------------------------------------------------------ *)
(* executing one attempt (shared by child and in-process paths)        *)
(* ------------------------------------------------------------------ *)

let execute cfg job ~attempt =
  if cfg.capture_telemetry then begin
    let was_enabled = Telemetry.enabled () in
    Telemetry.reset ();
    Telemetry.enable ();
    let capture () =
      let snapshot = Telemetry.metrics_snapshot () in
      if not was_enabled then Telemetry.disable ();
      snapshot
    in
    match job.run ~attempt with
    | value -> (value, Some (capture ()))
    | exception e ->
      ignore (capture ());
      raise e
  end
  else (job.run ~attempt, None)

(* ------------------------------------------------------------------ *)
(* wire protocol: the worker writes one JSON line and _exits           *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let child_main cfg job ~attempt wfd =
  (* chaos hooks: the key carries the attempt number so a fault with
     rate < 1 deterministically lets some retry through *)
  let fkey = Printf.sprintf "%s#%d" job.id attempt in
  if Fault_inject.fires Fault_inject.Child_crash ~key:fkey then
    Unix.kill (Unix.getpid ()) Sys.sigkill;
  if Fault_inject.fires Fault_inject.Child_exit ~key:fkey then Unix._exit 3;
  if Fault_inject.fires Fault_inject.Child_hang ~key:fkey then
    Unix.sleepf 3600.0;
  let payload =
    match execute cfg job ~attempt with
    | value, telemetry ->
      Json.Obj
        [
          ("ok", Json.Bool true);
          ("value", value);
          ( "telemetry",
            match telemetry with Some t -> t | None -> Json.Null );
        ]
    | exception e ->
      Json.Obj
        [ ("ok", Json.Bool false); ("error", Json.String (Printexc.to_string e)) ]
  in
  let line = Json.to_string payload ^ "\n" in
  let line =
    if Fault_inject.fires Fault_inject.Truncated_write ~key:fkey then
      String.sub line 0 (String.length line / 2)
    else line
  in
  (try write_all wfd line with _ -> ());
  (try Unix.close wfd with _ -> ());
  (* _exit, not exit: the child inherited the parent's buffered
     channels and must not flush them a second time *)
  Unix._exit 0

let parse_reply raw =
  match Json.of_string (String.trim raw) with
  | Error e -> Error (Crashed (Printf.sprintf "unparseable reply: %s" e))
  | Ok obj -> (
    match Json.member "ok" obj with
    | Some (Json.Bool true) ->
      let value = Option.value ~default:Json.Null (Json.member "value" obj) in
      let telemetry =
        match Json.member "telemetry" obj with
        | None | Some Json.Null -> None
        | Some t -> Some t
      in
      Ok (value, telemetry)
    | Some (Json.Bool false) ->
      let msg =
        match Json.member "error" obj with
        | Some (Json.String m) -> m
        | _ -> "unknown error"
      in
      Error (Job_error msg)
    | _ -> Error (Crashed "malformed reply"))

(* ------------------------------------------------------------------ *)
(* the pool                                                            *)
(* ------------------------------------------------------------------ *)

type worker = {
  pid : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  idx : int;
  attempt : int;
  started : float;
  deadline : float;
  mutable eof : bool;
}

(* mutable mirror of [stats] while the pool runs *)
type acc = {
  mutable a_scheduled : int;
  mutable a_cache_hits : int;
  mutable a_cache_misses : int;
  mutable a_computed : int;
  mutable a_crashes : int;
  mutable a_timeouts : int;
  mutable a_retries : int;
  mutable a_quarantined : int;
  mutable a_failed : int;
  mutable a_interrupted : bool;
}

let freeze a =
  {
    scheduled = a.a_scheduled;
    cache_hits = a.a_cache_hits;
    cache_misses = a.a_cache_misses;
    computed = a.a_computed;
    crashes = a.a_crashes;
    timeouts = a.a_timeouts;
    retries = a.a_retries;
    quarantined = a.a_quarantined;
    failed = a.a_failed;
    interrupted = a.a_interrupted;
  }

let mirror_to_telemetry s =
  let add name v = Telemetry.Counter.add (Telemetry.Counter.make name) v in
  add "runner.jobs.scheduled" s.scheduled;
  add "runner.jobs.computed" s.computed;
  add "runner.jobs.failed" s.failed;
  add "runner.cache.hit" s.cache_hits;
  add "runner.cache.miss" s.cache_misses;
  add "runner.worker.crash" s.crashes;
  add "runner.worker.timeout" s.timeouts;
  add "runner.worker.quarantined" s.quarantined;
  add "runner.retry" s.retries;
  if s.interrupted then
    add "runner.interrupted" 1

let h_job = Telemetry.Histogram.make "runner.job_s"

let cache_blob value telemetry =
  Json.Obj
    [
      ("value", value);
      ("telemetry", match telemetry with Some t -> t | None -> Json.Null);
    ]

let run ?(config = default_config) job_list =
  let cfg = config in
  let jobs = Array.of_list job_list in
  let n = Array.length jobs in
  let results : outcome option array = Array.make n None in
  let acc =
    {
      a_scheduled = n;
      a_cache_hits = 0;
      a_cache_misses = 0;
      a_computed = 0;
      a_crashes = 0;
      a_timeouts = 0;
      a_retries = 0;
      a_quarantined = 0;
      a_failed = 0;
      a_interrupted = false;
    }
  in
  let start = Unix.gettimeofday () in
  let batch_deadline =
    if cfg.deadline_s > 0.0 then start +. cfg.deadline_s else infinity
  in

  (* pending attempts: (job index, attempt, earliest start time), kept
     in FIFO order; backoff only delays an entry, never reorders it *)
  let pending : (int * int * float) list ref = ref [] in
  let push_pending entry = pending := !pending @ [ entry ] in
  let pending_empty () = !pending = [] in
  let take_ready now =
    let rec go skipped = function
      | [] -> None
      | ((i, attempt, not_before) :: rest : (int * int * float) list) ->
        if not_before <= now then begin
          pending := List.rev_append skipped rest;
          Some (i, attempt)
        end
        else go ((i, attempt, not_before) :: skipped) rest
    in
    go [] !pending
  in
  let next_wake () =
    List.fold_left (fun t (_, _, nb) -> Float.min t nb) infinity !pending
  in

  (* SIGINT/SIGTERM: set a flag, let the drain loop reap children and
     flush what finished as a partial result *)
  let interrupted = ref false in
  let restore_signals =
    if cfg.handle_signals && Sys.unix then begin
      let saved =
        List.map
          (fun s ->
            (s, Sys.signal s (Sys.Signal_handle (fun _ -> interrupted := true))))
          [ Sys.sigint; Sys.sigterm ]
      in
      fun () -> List.iter (fun (s, b) -> Sys.set_signal s b) saved
    end
    else fun () -> ()
  in

  let finished i outcome =
    results.(i) <- Some outcome;
    cfg.on_event (Finished { job = jobs.(i); outcome })
  in

  (* cache pass: answer what we can without running anything *)
  Array.iteri
    (fun i job ->
      match (cfg.cache, job.cache_key) with
      | Some cache, Some key -> (
        match Cache.find cache key with
        | Some blob ->
          acc.a_cache_hits <- acc.a_cache_hits + 1;
          let value =
            Option.value ~default:Json.Null (Json.member "value" blob)
          in
          let telemetry =
            match Json.member "telemetry" blob with
            | None | Some Json.Null -> None
            | Some t -> Some t
          in
          finished i
            (Done
               { value; telemetry; from_cache = true; attempts = 0;
                 duration_s = 0.0 })
        | None ->
          acc.a_cache_misses <- acc.a_cache_misses + 1;
          push_pending (i, 1, 0.0))
      | _ -> push_pending (i, 1, 0.0))
    jobs;

  let succeed i ~attempt ~started value telemetry =
    acc.a_computed <- acc.a_computed + 1;
    (match (cfg.cache, jobs.(i).cache_key) with
    | Some cache, Some key -> Cache.store cache key (cache_blob value telemetry)
    | _ -> ());
    let duration_s = Unix.gettimeofday () -. started in
    Telemetry.Histogram.observe h_job duration_s;
    (* a freshly computed worker snapshot (shipped back over the result
       pipe, pid included) joins the parent's Chrome trace as its own
       process track; cache-served snapshots carry timestamps from an
       earlier run and stay out *)
    (match telemetry with
    | Some snapshot when Telemetry.enabled () ->
      Telemetry.Trace_export.register ~label:jobs.(i).id snapshot
    | _ -> ());
    finished i
      (Done
         { value; telemetry; from_cache = false; attempts = attempt;
           duration_s })
  in
  (* consecutive identical-failure streaks, for poison detection *)
  let streaks : (int, string * int) Hashtbl.t = Hashtbl.create 16 in
  let fail i ~attempt failure =
    (match failure with
    | Crashed _ -> acc.a_crashes <- acc.a_crashes + 1
    | Timed_out -> acc.a_timeouts <- acc.a_timeouts + 1
    | Job_error _ | Interrupted | Deadline_exceeded -> ());
    let signature = failure_to_string failure in
    let streak =
      match Hashtbl.find_opt streaks i with
      | Some (s, k) when s = signature -> k + 1
      | _ -> 1
    in
    Hashtbl.replace streaks i (signature, streak);
    let poisoned =
      cfg.poison_threshold > 0 && streak >= cfg.poison_threshold
    in
    let will_retry = attempt <= cfg.retries && not poisoned in
    cfg.on_event
      (Attempt_failed { job = jobs.(i); attempt; failure; will_retry });
    if will_retry then begin
      acc.a_retries <- acc.a_retries + 1;
      let delay = retry_delay_s cfg ~id:jobs.(i).id ~attempt in
      push_pending (i, attempt + 1, Unix.gettimeofday () +. delay)
    end
    else begin
      acc.a_failed <- acc.a_failed + 1;
      if poisoned then acc.a_quarantined <- acc.a_quarantined + 1;
      finished i (Failed { attempts = attempt; last = failure; quarantined = poisoned })
    end
  in
  (* batch cut short (signal or deadline): everything unfinished —
     still-pending attempts plus [reaped] just-killed workers — fails
     with [failure] *)
  let flush_unfinished failure reaped =
    if failure = Interrupted then acc.a_interrupted <- true;
    let cut (i, attempts) =
      acc.a_failed <- acc.a_failed + 1;
      finished i (Failed { attempts; last = failure; quarantined = false })
    in
    List.iter (fun (i, attempt, _) -> cut (i, attempt - 1)) !pending;
    pending := [];
    List.iter cut reaped
  in

  let sequential () =
    let rec drain () =
      if pending_empty () then ()
      else if !interrupted then flush_unfinished Interrupted []
      else begin
        let now = Unix.gettimeofday () in
        if now > batch_deadline then flush_unfinished Deadline_exceeded []
        else
          match take_ready now with
          | None ->
            Unix.sleepf
              (Float.max 0.001 (Float.min 0.05 (next_wake () -. now)));
            drain ()
          | Some (i, attempt) ->
            cfg.on_event (Started { job = jobs.(i); attempt });
            let started = now in
            (match execute cfg jobs.(i) ~attempt with
            | value, telemetry -> succeed i ~attempt ~started value telemetry
            | exception e -> fail i ~attempt (Job_error (Printexc.to_string e)));
            drain ()
      end
    in
    drain ()
  in

  let forked () =
    let running : worker list ref = ref [] in
    let chunk = Bytes.create 65536 in
    let read_some w =
      if not w.eof then
        match Unix.read w.fd chunk 0 (Bytes.length chunk) with
        | 0 ->
          w.eof <- true;
          (try Unix.close w.fd with Unix.Unix_error _ -> ())
        | k -> Buffer.add_subbytes w.buf chunk 0 k
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    in
    let drain w = while not w.eof do read_some w done in
    let spawn i attempt =
      (* anything buffered would otherwise be flushed twice once the
         child exits *)
      Format.pp_print_flush Format.std_formatter ();
      Format.pp_print_flush Format.err_formatter ();
      flush stdout;
      flush stderr;
      let rfd, wfd = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
        (try Unix.close rfd with Unix.Unix_error _ -> ());
        (* drop the read ends of sibling pipes so a sibling's EOF is
           seen as soon as that sibling exits. A sibling already at
           EOF has had its descriptor closed, and the number may now
           belong to this child's own pipe. *)
        List.iter
          (fun w ->
            if not w.eof then try Unix.close w.fd with Unix.Unix_error _ -> ())
          !running;
        child_main cfg jobs.(i) ~attempt wfd
      | pid ->
        Unix.close wfd;
        cfg.on_event (Started { job = jobs.(i); attempt });
        let now = Unix.gettimeofday () in
        let deadline =
          if cfg.timeout_s > 0.0 then now +. cfg.timeout_s else infinity
        in
        running :=
          { pid; fd = rfd; buf = Buffer.create 4096; idx = i; attempt;
            started = now; deadline; eof = false }
          :: !running
    in
    let remove w = running := List.filter (fun x -> x.pid <> w.pid) !running in
    let complete w status =
      drain w;
      remove w;
      match status with
      | Unix.WEXITED 0 -> (
        match parse_reply (Buffer.contents w.buf) with
        | Ok (value, telemetry) ->
          succeed w.idx ~attempt:w.attempt ~started:w.started value telemetry
        | Error failure -> fail w.idx ~attempt:w.attempt failure)
      | Unix.WEXITED code ->
        fail w.idx ~attempt:w.attempt
          (Crashed (Printf.sprintf "exit %d" code))
      | Unix.WSIGNALED sg ->
        fail w.idx ~attempt:w.attempt (Crashed (Printf.sprintf "signal %d" sg))
      | Unix.WSTOPPED _ ->
        fail w.idx ~attempt:w.attempt (Crashed "stopped")
    in
    let expire w =
      (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] w.pid);
      if not w.eof then begin
        w.eof <- true;
        try Unix.close w.fd with Unix.Unix_error _ -> ()
      end;
      remove w;
      fail w.idx ~attempt:w.attempt Timed_out
    in
    let kill_everything () =
      List.iter
        (fun w ->
          (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
          if not w.eof then
            try Unix.close w.fd with Unix.Unix_error _ -> ())
        !running;
      running := []
    in
    let abort_with : failure option ref = ref None in
    try
      while
        !abort_with = None
        && ((not (pending_empty ())) || !running <> [])
      do
        if !interrupted then abort_with := Some Interrupted
        else if Unix.gettimeofday () > batch_deadline then
          abort_with := Some Deadline_exceeded
        else begin
          let now = Unix.gettimeofday () in
          let rec spawn_ready () =
            if List.length !running < cfg.jobs then
              match take_ready now with
              | Some (i, attempt) ->
                spawn i attempt;
                spawn_ready ()
              | None -> ()
          in
          spawn_ready ();
          let now = Unix.gettimeofday () in
          List.iter expire (List.filter (fun w -> now > w.deadline) !running);
          if !running = [] then begin
            (* every pending attempt is backing off *)
            if not (pending_empty ()) then
              Unix.sleepf
                (Float.max 0.001 (Float.min 0.05 (next_wake () -. now)))
          end
          else begin
            let fds =
              List.filter_map
                (fun w -> if w.eof then None else Some w.fd)
                !running
            in
            (if fds = [] then Unix.sleepf 0.002
             else
               let timeout =
                 let next =
                   List.fold_left
                     (fun t w -> Float.min t w.deadline)
                     infinity !running
                 in
                 let next = Float.min next batch_deadline in
                 let next = Float.min next (next_wake ()) in
                 if next = infinity then 0.2
                 else Float.max 0.005 (Float.min 0.2 (next -. now))
               in
               match Unix.select fds [] [] timeout with
               | readable, _, _ ->
                 List.iter
                   (fun w -> if List.mem w.fd readable then read_some w)
                   !running
               | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
            List.iter
              (fun w ->
                match Unix.waitpid [ Unix.WNOHANG ] w.pid with
                | 0, _ -> ()
                | _, status -> complete w status
                | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                  complete w (Unix.WEXITED 0))
              !running
          end
        end
      done;
      match !abort_with with
      | None -> ()
      | Some failure ->
        let reaped = List.map (fun w -> (w.idx, w.attempt)) !running in
        kill_everything ();
        flush_unfinished failure reaped
    with e ->
      kill_everything ();
      raise e
  in

  Fun.protect ~finally:restore_signals (fun () ->
      if pending_empty () then ()
      else if cfg.jobs <= 1 || not Sys.unix then sequential ()
      else forked ());

  let stats = freeze acc in
  mirror_to_telemetry stats;
  ( Array.to_list
      (Array.mapi
         (fun i job ->
           match results.(i) with
           | Some outcome -> { job; outcome }
           | None ->
             (* unreachable: every scheduled job ends in [finished] *)
             { job;
               outcome =
                 Failed
                   { attempts = 0; last = Crashed "lost"; quarantined = false }
             })
         jobs),
    stats )
