module Json = Telemetry.Json
module E = Scanpower_errors
module Events = Telemetry.Events

let c_restarts = Telemetry.Counter.make "server.supervisor.restarts"

type config = {
  daemon : Daemon.config;
  restart_budget : int;
  restart_refill_s : float;
}

let default_config =
  { daemon = Daemon.default_config; restart_budget = 5; restart_refill_s = 30.0 }

let log config json =
  match config.daemon.Daemon.log with
  | Some oc -> (try Events.write_json_line oc json with _ -> ())
  | None -> ()

let status_fields = function
  | Unix.WEXITED n -> [ ("exited", Json.Int n) ]
  | Unix.WSIGNALED s -> [ ("signaled", Json.Int s) ]
  | Unix.WSTOPPED s -> [ ("stopped", Json.Int s) ]

(* The monitored child: reset inherited handlers (the parent's forward
   SIGTERM to a pid that does not exist on this side of the fork), then
   unblock the signals the fork ran with blocked ([mask] is the mask
   before), run the daemon, flush every buffered sink, and _exit so the
   parent's at_exit machinery never runs twice. *)
let child_main config ~generation ~mask =
  Sys.set_signal Sys.sigterm Sys.Signal_default;
  Sys.set_signal Sys.sigint Sys.Signal_default;
  ignore (Unix.sigprocmask Unix.SIG_SETMASK mask);
  let code =
    try
      let daemon_config = { config.daemon with Daemon.generation } in
      let (_stats : Json.t) = Daemon.run ~config:daemon_config () in
      0
    with
    | E.Error e ->
      prerr_endline (E.to_string e);
      E.exit_code e.E.code
    | exn ->
      prerr_endline (Printexc.to_string exn);
      4
  in
  Events.flush_subscribers ();
  (try flush stdout with _ -> ());
  (try flush stderr with _ -> ());
  Unix._exit code

let rec wait_child pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> wait_child pid

let run ?(config = default_config) () =
  if config.restart_budget < 1 then
    invalid_arg "Supervisor.run: restart_budget must be >= 1";
  (* token bucket: a crash spends one token; [restart_refill_s] of
     uptime earns one back, capped at the budget. A crash loop drains
     it in seconds and exits cleanly instead of storming. *)
  let tokens = ref (float_of_int config.restart_budget) in
  let last_refill = ref (Unix.gettimeofday ()) in
  let refill () =
    let now = Unix.gettimeofday () in
    if config.restart_refill_s > 0.0 then
      tokens :=
        min
          (float_of_int config.restart_budget)
          (!tokens +. ((now -. !last_refill) /. config.restart_refill_s));
    last_refill := now
  in
  (* the signal that asked us to stop, forwarded to the live child *)
  let stop = ref None in
  let child_pid = ref None in
  let forward signal _ =
    stop := Some signal;
    match !child_pid with
    | Some pid -> ( try Unix.kill pid signal with _ -> ())
    | None -> ()
  in
  let old_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (forward Sys.sigterm))
  in
  let old_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (forward Sys.sigint))
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int)
    (fun () ->
      let generation = ref 0 in
      let finished = ref false in
      (* A signal that lands while no child is registered (after a
         crash, or around [fork]) reaches no child: the loop starts no
         generation after one, and a child forked meanwhile is sent
         the signal once it is registered. *)
      while not !finished && Option.is_none !stop do
        incr generation;
        (* SIGTERM and SIGINT wait while the child is forked, so none
           reaches a child that still runs our handlers *)
        let mask =
          Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ]
        in
        match Unix.fork () with
        | exception e ->
          ignore (Unix.sigprocmask Unix.SIG_SETMASK mask);
          raise e
        | 0 -> child_main config ~generation:!generation ~mask
        | pid ->
          child_pid := Some pid;
          ignore (Unix.sigprocmask Unix.SIG_SETMASK mask);
          (match !stop with
          | Some signal -> ( try Unix.kill pid signal with _ -> ())
          | None -> ());
          log config
            (Json.Obj
               [
                 ("event", Json.String "supervisor.child_started");
                 ("pid", Json.Int pid);
                 ("generation", Json.Int !generation);
               ]);
          let status = wait_child pid in
          child_pid := None;
          (match status with
          | Unix.WEXITED 0 ->
            (* the daemon drained and exited on its own terms *)
            finished := true
          | status when Option.is_some !stop ->
            (* we asked it to die; however it went down, we are done *)
            log config
              (Json.Obj
                 (("event", Json.String "supervisor.stopped")
                 :: status_fields status));
            finished := true
          | status ->
            refill ();
            if !tokens < 1.0 then begin
              log config
                (Json.Obj
                   (("event", Json.String "supervisor.budget_exhausted")
                   :: ("generation", Json.Int !generation)
                   :: status_fields status));
              E.raise_error ~code:E.Runtime ~stage:"server.supervisor"
                (Printf.sprintf
                   "restart budget exhausted after %d generations; \
                    refusing to restart-storm"
                   !generation)
            end;
            tokens := !tokens -. 1.0;
            Telemetry.Counter.inc c_restarts;
            log config
              (Json.Obj
                 (("event", Json.String "supervisor.restart")
                 :: ("generation", Json.Int !generation)
                 :: ("tokens_left", Json.Float !tokens)
                 :: status_fields status));
            (* let the dead child's socket file settle; the next
               generation's bind path probes and replaces it *)
            Unix.sleepf 0.05)
      done;
      if not !finished then
        log config (Json.Obj [ ("event", Json.String "supervisor.stopped") ]))
