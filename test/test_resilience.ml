(* Self-healing serve: registry snapshot/restore, the supervision tree
   (crash → restart under a token budget, warm restore, idempotent
   client replay), the memory-pressure watchdog's degraded mode, the
   resilient client (reconnect/replay on torn writes),
   telemetry flush on drain, and a seeded protocol fuzzer that hammers
   a live daemon with mutated frames.

   Every live test forks a real daemon (or supervisor) child, so this
   suite must run before anything spawns a domain in the test process
   — OCaml 5 permanently refuses [Unix.fork] afterwards. *)

module P = Scanpower_server.Protocol
module D = Scanpower_server.Daemon
module S = Scanpower_server.Supervisor
module C = Scanpower_server.Client
module R = Scanpower.Registry
module E = Scanpower_errors
module Json = Telemetry.Json
module Events = Telemetry.Events
module Flow = Scanpower.Flow
module FI = Runner.Fault_inject

let sock_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sp-resil-%d-%d.sock" (Unix.getpid ()) !counter)

let tmp_file =
  let counter = ref 0 in
  fun suffix ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sp-resil-%d-%d%s" (Unix.getpid ()) !counter suffix)

let expect_value label = function
  | Ok v -> v
  | Error e -> Alcotest.fail (label ^ ": " ^ E.to_string e)

let member_int obj k =
  match Json.member k obj with Some (Json.Int n) -> Some n | _ -> None

(* fork a plain daemon with an optional in-child fault spec *)
let start_daemon ?spec ?(configure = fun c -> c) () =
  let socket = sock_path () in
  let config = configure { D.default_config with D.socket; log = None } in
  flush stdout;
  flush stderr;
  let pid = Unix.fork () in
  if pid = 0 then begin
    FI.set spec;
    (try ignore (D.run ~config ()) with _ -> ());
    Unix._exit 0
  end;
  (pid, socket)

(* fork a supervisor whose daemon children inherit the fault spec *)
let start_supervised ?spec ?(budget = 5) ?(refill = 30.0)
    ?(configure = fun c -> c) () =
  let socket = sock_path () in
  let daemon = configure { D.default_config with D.socket; log = None } in
  flush stdout;
  flush stderr;
  let pid = Unix.fork () in
  if pid = 0 then begin
    FI.set spec;
    let code =
      try
        S.run
          ~config:
            { S.daemon; restart_budget = budget; restart_refill_s = refill }
          ();
        0
      with
      | E.Error e -> E.exit_code e.E.code
      | _ -> 4
    in
    Unix._exit code
  end;
  (pid, socket)

let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error _ -> Unix.WEXITED 0

let kill_hard pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* registry snapshot / restore / trim                                  *)
(* ------------------------------------------------------------------ *)

let tiny name seed =
  Circuits.generate
    { Circuits.name; n_pi = 4; n_po = 2; n_ff = 3; n_gates = 20; seed }

let warm_two reg =
  List.iter
    (fun (name, seed) ->
      let c = tiny name seed in
      let key = Flow.prepare_key c in
      ignore (R.find_or_prepare reg ~key ~name (fun () -> Flow.prepare c)))
    [ ("snapA", 1); ("snapB", 2) ]

let check_snapshot_roundtrip () =
  let path = tmp_file ".snap" in
  let reg = R.create ~capacity:8 () in
  warm_two reg;
  Alcotest.(check int) "snapshot writes both" 2 (R.snapshot reg ~path);
  let fresh = R.create ~capacity:8 () in
  Alcotest.(check int) "restore recovers both" 2 (R.restore fresh ~path);
  (* a restored entry is warm: find_or_prepare must hit, not rebuild *)
  let c = tiny "snapA" 1 in
  let built = ref false in
  let _, hit =
    R.find_or_prepare fresh ~key:(Flow.prepare_key c) ~name:"snapA"
      (fun () ->
        built := true;
        Flow.prepare c)
  in
  Alcotest.(check bool) "restored entry hits" true hit;
  Alcotest.(check bool) "restored entry not rebuilt" false !built;
  Alcotest.(check int) "hit counted" 1 (R.stats fresh).R.s_hits;
  Sys.remove path

let check_snapshot_corruption () =
  let path = tmp_file ".snap" in
  let reg = R.create ~capacity:8 () in
  warm_two reg;
  ignore (R.snapshot reg ~path);
  (* truncation: cut the payload short *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full / 2)));
  let r1 = R.create ~capacity:8 () in
  Alcotest.(check int) "truncated snapshot is a cold start" 0
    (R.restore r1 ~path);
  (* clobbered payload byte: the digest catches it *)
  let bad = Bytes.of_string full in
  Bytes.set bad (Bytes.length bad - 1) '\x00';
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc bad);
  let r2 = R.create ~capacity:8 () in
  Alcotest.(check int) "clobbered snapshot is a cold start" 0
    (R.restore r2 ~path);
  (* intact snapshots of previous formats: /2 entries carry ATPG counts
     with the old meaning of detected and aborted, /3 entries a scan
     chain of the single-chain layout, /4 entries untestable and aborted
     counts from before the learned constant lines *)
  let nl = String.index full '\n' in
  List.iter
    (fun magic ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (magic ^ String.sub full nl (String.length full - nl)));
      let r_old = R.create ~capacity:8 () in
      Alcotest.(check int)
        (magic ^ " snapshot is a cold start")
        0 (R.restore r_old ~path))
    [
      "scanpower-registry-snapshot/2"; "scanpower-registry-snapshot/3";
      "scanpower-registry-snapshot/4";
    ];
  (* wrong magic *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "not-a-snapshot/0\n");
  let r3 = R.create ~capacity:8 () in
  Alcotest.(check int) "wrong magic is a cold start" 0 (R.restore r3 ~path);
  (* missing file *)
  Sys.remove path;
  let r4 = R.create ~capacity:8 () in
  Alcotest.(check int) "missing file is a cold start" 0 (R.restore r4 ~path)

let check_trim () =
  let reg = R.create ~capacity:8 () in
  List.iter
    (fun seed ->
      let c = tiny (Printf.sprintf "trim%d" seed) seed in
      ignore
        (R.find_or_prepare reg
           ~key:(Flow.prepare_key c)
           ~name:(Printf.sprintf "trim%d" seed)
           (fun () -> Flow.prepare c)))
    [ 1; 2; 3; 4 ];
  Alcotest.(check int) "evicts down to keep" 2 (R.trim reg ~keep:2);
  Alcotest.(check int) "two left" 2 (R.stats reg).R.s_entries;
  Alcotest.(check int) "noop below keep" 0 (R.trim reg ~keep:4);
  Alcotest.(check int) "keep 0 empties" 2 (R.trim reg ~keep:0)

(* ------------------------------------------------------------------ *)
(* telemetry flush on shutdown                                         *)
(* ------------------------------------------------------------------ *)

let check_events_flush () =
  let flushed = ref 0 in
  let seen = ref [] in
  let sub =
    Events.subscribe
      ~flush:(fun () -> incr flushed)
      (fun ev -> seen := ev.Events.name :: !seen)
  in
  Events.emit "resilience.test" [];
  Events.flush_subscribers ();
  Events.flush_subscribers ();
  Events.unsubscribe sub;
  Alcotest.(check (list string)) "event delivered" [ "resilience.test" ] !seen;
  Alcotest.(check int) "flush callback ran per call" 2 !flushed;
  (* a subscriber without a flush callback is fine *)
  let sub2 = Events.subscribe (fun _ -> ()) in
  Events.flush_subscribers ();
  Events.unsubscribe sub2;
  (* a throwing flush is swallowed like a throwing subscriber *)
  let sub3 = Events.subscribe ~flush:(fun () -> failwith "boom") (fun _ -> ()) in
  Events.flush_subscribers ();
  Events.unsubscribe sub3

(* ------------------------------------------------------------------ *)
(* fault-injection spec round-trip for the socket-level sites          *)
(* ------------------------------------------------------------------ *)

let check_socket_fault_sites () =
  let spec = "seed=9,torn_write=0.5,worker_kill=1,stall_read=0.25,heap_spike=0.1" in
  match FI.of_spec spec with
  | Error m -> Alcotest.fail m
  | Ok t ->
    Alcotest.(check bool) "torn_write rate" true (FI.rate t FI.Torn_write = 0.5);
    Alcotest.(check bool) "worker_kill rate" true
      (FI.rate t FI.Worker_kill = 1.0);
    (match FI.of_spec (FI.to_spec t) with
    | Ok t' -> Alcotest.(check bool) "spec round-trips" true (t = t')
    | Error m -> Alcotest.fail m);
    (* rolls are pure in (seed, site, key) *)
    FI.with_spec (Some t) (fun () ->
        let a = FI.fires FI.Worker_kill ~key:"x#gen1" in
        let b = FI.fires FI.Worker_kill ~key:"x#gen1" in
        Alcotest.(check bool) "deterministic roll" a b)

(* ------------------------------------------------------------------ *)
(* supervisor: crash, restart, warm restore, idempotent replay         *)
(* ------------------------------------------------------------------ *)

(* [FI.fires] is pure in (seed, site, key), so we can search for a
   seed under which generation 1 is killed mid-request and generation
   2 (and every other flow id we use) is spared — making the chaos run
   fully deterministic. [health]/[stats] requests never roll. *)
let find_kill_seed () =
  let fire_ids = [ "kill-me#gen1" ] in
  let spare_ids = [ "warm#gen1"; "kill-me#gen2" ] in
  let ok seed =
    let spec = { FI.seed; rates = [ (FI.Worker_kill, 0.5) ] } in
    FI.with_spec (Some spec) (fun () ->
        List.for_all (fun key -> FI.fires FI.Worker_kill ~key) fire_ids
        && List.for_all
             (fun key -> not (FI.fires FI.Worker_kill ~key))
             spare_ids)
  in
  let rec go seed =
    if seed > 100_000 then Alcotest.fail "no kill seed found"
    else if ok seed then seed
    else go (seed + 1)
  in
  go 0

let check_supervisor_restart_replay () =
  let seed = find_kill_seed () in
  let snap = tmp_file ".snap" in
  let pid, socket =
    start_supervised
      ~spec:{ FI.seed; rates = [ (FI.Worker_kill, 0.5) ] }
      ~configure:(fun c ->
        { c with
          D.snapshot_path = Some snap;
          snapshot_every_s = 0.05;
          registry_capacity = 8;
        })
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (stop pid);
      if Sys.file_exists snap then Sys.remove snap)
    (fun () ->
      let session = C.session ~retry_for_s:30.0 socket in
      Fun.protect
        ~finally:(fun () -> C.close_session session)
        (fun () ->
          (* generation 1: execute once, warming the registry *)
          let warm =
            expect_value "warm flow"
              (C.call session (P.make ~id:"warm" ~circuit:"s27" ~seed:7 P.Flow))
          in
          Alcotest.(check (option int)) "single execution (warm)" (Some 1)
            (member_int warm "idem_executions");
          let h1 =
            expect_value "gen1 health"
              (C.call session (P.make ~id:"h" P.Health))
          in
          Alcotest.(check (option int)) "generation 1" (Some 1)
            (member_int h1 "generation");
          (* wait until a periodic snapshot holds the warm entry *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          while R.restore (R.create ()) ~path:snap < 1 do
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "no snapshot with the warm entry within 10 s";
            Unix.sleepf 0.01
          done;
          (* generation 1 is SIGKILLed mid-request; the supervisor
             restarts, generation 2 restores the snapshot, and the
             session replays — same id, same idempotency key *)
          let killed =
            expect_value "replayed flow"
              (C.call session
                 (P.make ~id:"kill-me" ~circuit:"s27" ~seed:7 P.Flow))
          in
          Alcotest.(check bool) "session replayed" true
            (C.session_replays session >= 1);
          (* zero duplicate execution across the crash *)
          Alcotest.(check (option int)) "single execution (replay)" (Some 1)
            (member_int killed "idem_executions");
          (* the replay ran against the RESTORED registry: a warm hit *)
          Alcotest.(check bool) "warm after restore" true
            (Json.member "registry_hit" killed = Some (Json.Bool true));
          (* bit-identical to the undisturbed run on generation 1 *)
          (match (Json.member "comparison" warm, Json.member "comparison" killed)
           with
          | Some a, Some b ->
            Alcotest.(check bool) "bit-identical comparison" true
              (Json.equal a b)
          | _ -> Alcotest.fail "flow values must carry a comparison");
          (* the restart is visible: generation bumped, restore counted *)
          let st =
            expect_value "gen2 stats" (C.call session (P.make ~id:"st" P.Stats))
          in
          Alcotest.(check (option int)) "generation 2" (Some 2)
            (member_int st "generation");
          Alcotest.(check bool) "warm_restored > 0" true
            (match member_int st "warm_restored" with
            | Some n -> n > 0
            | None -> false);
          (match Json.member "registry" st with
          | Some reg ->
            Alcotest.(check bool) "registry warm-hit > 0" true
              (match member_int reg "hits" with Some n -> n > 0 | None -> false)
          | None -> Alcotest.fail "stats must carry registry stats")));
  (* SIGTERM drained the supervisor tree cleanly *)
  ()

let check_supervisor_budget_exhausted () =
  (* every request is killed (rate 1): budget 2 absorbs two crashes,
     the third exhausts it and the supervisor exits runtime/4 *)
  let pid, socket =
    start_supervised
      ~spec:{ FI.seed = 1; rates = [ (FI.Worker_kill, 1.0) ] }
      ~budget:2 ~refill:0.0 ()
  in
  (* keep sending doomed requests until the bucket drains and the
     supervisor gives up — a fixed attempt count would race the
     restart window under load *)
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec hammer i =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        kill_hard pid;
        Alcotest.fail "restart budget never exhausted"
      end;
      (try
         let client = C.connect ~retry_for_s:2.0 socket in
         Fun.protect
           ~finally:(fun () -> C.close client)
           (fun () ->
             ignore
               (C.rpc client
                  (P.make ~id:(Printf.sprintf "boom%d" i) ~circuit:"s27"
                     P.Validate)))
       with _ -> ());
      Unix.sleepf 0.05;
      hammer (i + 1)
    | _, status -> status
  in
  match hammer 1 with
  | Unix.WEXITED 4 -> ()
  | Unix.WEXITED n -> Alcotest.failf "expected exit 4, got exit %d" n
  | _ -> Alcotest.fail "supervisor must exit, not die of a signal"

(* A SIGTERM that reaches the supervisor while it has no child — in
   the pause after a crash, or around the next fork — must still stop
   it: it starts no further generation, or signals the one it just
   forked. Generation 1 kills itself on its first request; the test
   sends SIGTERM as soon as the supervisor logs the restart, usually
   inside that pause, and the supervisor and every child it forked must
   be gone (the log pipe's last writer closed) within a bound. A
   supervisor that forks generation 2 unsignalled waits on it forever. *)
let check_supervisor_stops_after_crash () =
  let r, w = Unix.pipe ~cloexec:false () in
  let socket = sock_path () in
  flush stdout;
  flush stderr;
  let pid = Unix.fork () in
  if pid = 0 then begin
    Unix.close r;
    FI.set (Some { FI.seed = 1; rates = [ (FI.Worker_kill, 1.0) ] });
    let log = Unix.out_channel_of_descr w in
    let daemon = { D.default_config with D.socket; log = Some log } in
    let code =
      try
        S.run
          ~config:{ S.daemon; restart_budget = 5; restart_refill_s = 0.0 }
          ();
        0
      with
      | E.Error e -> E.exit_code e.E.code
      | _ -> 4
    in
    (try flush log with _ -> ());
    Unix._exit code
  end;
  Unix.close w;
  (* the log's events, line by line, read with a deadline *)
  let pending = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let events = Queue.create () and eof = ref false in
  let read_until deadline =
    let rec go () =
      let left = deadline -. Unix.gettimeofday () in
      if (not !eof) && Queue.is_empty events && left > 0.0 then begin
        (match Unix.select [ r ] [] [] left with
        | [], _, _ -> ()
        | _ -> (
          match Unix.read r chunk 0 (Bytes.length chunk) with
          | 0 -> eof := true
          | n ->
            Buffer.add_subbytes pending chunk 0 n;
            let lines = String.split_on_char '\n' (Buffer.contents pending) in
            let rec split = function
              | [ rest ] ->
                Buffer.clear pending;
                Buffer.add_string pending rest
              | line :: more ->
                (match Json.of_string line with
                | Ok j -> Queue.add j events
                | Error _ -> ());
                split more
              | [] -> ()
            in
            split lines));
        go ()
      end
    in
    go ()
  in
  let children = ref [] in
  let next_event deadline =
    read_until deadline;
    match Queue.take_opt events with
    | Some j ->
      (match (Json.member "event" j, member_int j "pid") with
      | Some (Json.String "supervisor.child_started"), Some child ->
        children := child :: !children
      | _ -> ());
      Some j
    | None -> None
  in
  let cleanup () =
    List.iter (fun c -> try Unix.kill c Sys.sigkill with _ -> ()) !children;
    kill_hard pid;
    Unix.close r
  in
  Fun.protect ~finally:cleanup (fun () ->
      (try
         let client = C.connect ~retry_for_s:30.0 socket in
         Fun.protect
           ~finally:(fun () -> C.close client)
           (fun () ->
             ignore
               (C.rpc client (P.make ~id:"boom" ~circuit:"s27" P.Validate)))
       with _ -> ());
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec await_restart () =
        match next_event deadline with
        | None -> Alcotest.fail "no supervisor.restart within 30 s"
        | Some j ->
          if Json.member "event" j <> Some (Json.String "supervisor.restart")
          then await_restart ()
      in
      await_restart ();
      Unix.kill pid Sys.sigterm;
      let deadline = Unix.gettimeofday () +. 20.0 in
      while (not !eof) && Unix.gettimeofday () < deadline do
        ignore (next_event deadline)
      done;
      Alcotest.(check bool)
        "supervisor tree gone within 20 s of SIGTERM" true !eof;
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "supervisor exited %d" n
      | _ -> Alcotest.fail "supervisor must exit, not die of a signal")

(* Under a kill rate of 1, only a request that names a circuit rolls
   the kill: [health] and [stats] are answered by generation 1 (their
   answers describe the daemon they ran on, so a kill there would
   replay them on a fresh generation), and a [validate] is what ends
   it. *)
let check_kill_spares_health_and_stats () =
  let pid, socket =
    start_supervised
      ~spec:{ FI.seed = 1; rates = [ (FI.Worker_kill, 1.0) ] }
      ~budget:2 ~refill:0.0 ()
  in
  Fun.protect
    ~finally:(fun () -> ignore (stop pid))
    (fun () ->
      let generation label v =
        match member_int v "generation" with
        | Some g -> g
        | None -> Alcotest.failf "%s: no generation" label
      in
      let client = C.connect ~retry_for_s:10.0 socket in
      Fun.protect
        ~finally:(fun () -> C.close client)
        (fun () ->
          List.iter
            (fun (id, kind) ->
              let v = expect_value id (C.rpc client (P.make ~id kind)) in
              Alcotest.(check int) (id ^ " on generation 1") 1
                (generation id v))
            [ ("h1", P.Health); ("st1", P.Stats); ("h2", P.Health) ];
          (* the kill resets the connection, or closes it before a
             response arrives *)
          let answered =
            try
              Result.is_ok
                (C.rpc client (P.make ~id:"v1" ~circuit:"s27" P.Validate))
            with Sys_error _ -> false
          in
          Alcotest.(check bool) "validate kills generation 1" false answered);
      (* the supervisor restarts and the next generation answers health;
         the session replays it if it first reaches the dying
         generation's socket *)
      let session = C.session ~retry_for_s:10.0 socket in
      Fun.protect
        ~finally:(fun () -> C.close_session session)
        (fun () ->
          let v =
            expect_value "h3" (C.call session (P.make ~id:"h3" P.Health))
          in
          Alcotest.(check int) "health on generation 2" 2 (generation "h3" v)))

(* ------------------------------------------------------------------ *)
(* memory watchdog: degraded mode sheds compute, keeps health alive    *)
(* ------------------------------------------------------------------ *)

let check_degraded_mode () =
  (* every read pins a ~32 MB spike against a 1 MW (8 MB) budget: the
     watchdog must trim, then degrade *)
  let pid, socket =
    start_daemon
      ~spec:{ FI.seed = 3; rates = [ (FI.Heap_spike, 1.0) ] }
      ~configure:(fun c -> { c with D.max_heap_mw = 1.0 })
      ()
  in
  Fun.protect
    ~finally:(fun () -> ignore (stop pid))
    (fun () ->
      let client = C.connect ~retry_for_s:10.0 socket in
      Fun.protect
        ~finally:(fun () -> C.close client)
        (fun () ->
          (* hammer flow requests until the shed kicks in *)
          let degraded = ref false in
          let tries = ref 0 in
          while (not !degraded) && !tries < 20 do
            incr tries;
            match
              C.rpc client
                (P.make
                   ~id:(Printf.sprintf "f%d" !tries)
                   ~circuit:"s27" P.Flow)
            with
            | Error e when e.E.code = E.Degraded ->
              degraded := true;
              Alcotest.(check string) "degraded names admission"
                "server.admission" e.E.stage
            | Ok _ | Error _ -> ()
          done;
          Alcotest.(check bool) "daemon eventually sheds" true !degraded;
          (* cheap requests keep being served while degraded *)
          let h =
            expect_value "health alive while degraded"
              (C.rpc client (P.make ~id:"h" P.Health))
          in
          Alcotest.(check bool) "status ok" true
            (Json.member "status" h = Some (Json.String "ok"));
          (* and the resilient client backs off and retries degraded:
             with a short window it surfaces the degraded error rather
             than hanging *)
          let session = C.session ~retry_for_s:0.3 socket in
          (match C.call session (P.make ~id:"r1" ~circuit:"s27" P.Flow) with
          | Error e ->
            Alcotest.(check bool) "degraded or deadline after retries" true
              (e.E.code = E.Degraded || e.E.code = E.Deadline)
          | Ok _ -> ());
          C.close_session session))

(* ------------------------------------------------------------------ *)
(* torn writes: the resilient client replays, the dispatcher dedupes   *)
(* ------------------------------------------------------------------ *)

(* find a seed where the first write of the response to [torn] is torn
   and the replay's write goes through *)
let find_torn_seed () =
  let ok seed =
    let spec = { FI.seed; rates = [ (FI.Torn_write, 0.5) ] } in
    FI.with_spec (Some spec) (fun () ->
        FI.fires FI.Torn_write ~key:"torn#w1"
        && not (FI.fires FI.Torn_write ~key:"torn#w2"))
  in
  let rec go seed =
    if seed > 100_000 then Alcotest.fail "no torn seed found"
    else if ok seed then seed
    else go (seed + 1)
  in
  go 0

let check_torn_write_replay () =
  let seed = find_torn_seed () in
  let pid, socket =
    start_daemon ~spec:{ FI.seed; rates = [ (FI.Torn_write, 0.5) ] } ()
  in
  Fun.protect
    ~finally:(fun () -> ignore (stop pid))
    (fun () ->
      let session = C.session ~retry_for_s:15.0 socket in
      Fun.protect
        ~finally:(fun () -> C.close_session session)
        (fun () ->
          let v =
            expect_value "survives the torn write"
              (C.call session (P.make ~id:"torn" ~circuit:"s27" P.Flow))
          in
          Alcotest.(check bool) "client replayed" true
            (C.session_replays session >= 1);
          (* the dispatcher served the replay from the idempotency
             store: stored before the torn write, executed once *)
          Alcotest.(check (option int)) "no double execution" (Some 1)
            (member_int v "idem_executions")))

(* ------------------------------------------------------------------ *)
(* protocol parsing never raises (pure QCheck)                         *)
(* ------------------------------------------------------------------ *)

let prop_request_of_line_total =
  QCheck.Test.make ~name:"request_of_line never raises on arbitrary bytes"
    ~count:2000
    QCheck.(string_of Gen.(char_range '\000' '\255'))
    (fun s ->
      match P.request_of_line s with Ok _ | Error _ -> true)

(* The fuzz dictionary: cheap kinds only (health / stats / a tiny
   inline validate / a flow missing its circuit, which is a fast usage
   error), so ten thousand live cases stay fast. The bench text's real
   newlines are escaped by the JSON printer, so each frame is still
   one line. *)
let valid_frames =
  [
    Json.to_string (P.request_to_json (P.make ~id:"a" ~idem:"k1" P.Flow));
    Json.to_string
      (P.request_to_json
         (P.make ~id:"b" ~bench:"INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n" ~name:"t"
            ~seed:7 ~deadline_s:1.5 ~stream:true P.Validate));
    Json.to_string (P.request_to_json (P.make ~id:"c" P.Health));
    Json.to_string (P.request_to_json (P.make ~id:"d" ~idem:"k2" P.Stats));
  ]

(* single-edit mutations of valid frames: flip, delete or insert one
   byte — the parser must still never raise *)
let prop_mutated_frame_total =
  let gen =
    QCheck.Gen.(
      let* frame = oneofl valid_frames in
      let* pos = int_range 0 (max 0 (String.length frame - 1)) in
      let* op = int_range 0 2 in
      let* byte = char_range '\000' '\255' in
      return
        (match op with
        | 0 ->
          (* flip *)
          String.mapi (fun i c -> if i = pos then byte else c) frame
        | 1 ->
          (* delete *)
          String.sub frame 0 pos
          ^ String.sub frame (pos + 1) (String.length frame - pos - 1)
        | _ ->
          (* insert *)
          String.sub frame 0 pos
          ^ String.make 1 byte
          ^ String.sub frame pos (String.length frame - pos)))
  in
  QCheck.Test.make ~name:"single-edit mutations never raise" ~count:2000
    (QCheck.make gen) (fun s ->
      match P.request_of_line s with Ok _ | Error _ -> true)

let check_idem_roundtrip () =
  let r = P.make ~id:"x" ~circuit:"s27" ~idem:"key-42" P.Flow in
  (match P.parse_request (P.request_to_json r) with
  | Ok r' ->
    Alcotest.(check bool) "idem survives the wire" true (r = r');
    Alcotest.(check (option string)) "key intact" (Some "key-42") r'.P.idem
  | Error e -> Alcotest.fail (E.to_string e));
  (* an empty key is rejected, absent is fine *)
  (match P.request_of_line {|{"id":"x","kind":"health","idem":""}|} with
  | Error e ->
    Alcotest.(check string) "empty idem rejected" "usage"
      (E.code_to_string e.E.code)
  | Ok _ -> Alcotest.fail "empty idem must be rejected");
  match P.request_of_line {|{"id":"x","kind":"health"}|} with
  | Ok r -> Alcotest.(check (option string)) "absent idem" None r.P.idem
  | Error e -> Alcotest.fail (E.to_string e)

(* ------------------------------------------------------------------ *)
(* live protocol fuzzer: a seeded storm of mutated frames              *)
(* ------------------------------------------------------------------ *)

let fuzz_cases () =
  match Sys.getenv_opt "SCANPOWER_FUZZ_CASES" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 10_000)
  | None -> 10_000

(* one fuzz case: a line (possibly containing embedded newlines after
   mutation) derived from the dictionary or pure noise *)
let fuzz_line rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let mutate s =
    if String.length s = 0 then s
    else
      let pos = Random.State.int rng (String.length s) in
      match Random.State.int rng 4 with
      | 0 ->
        String.mapi
          (fun i c ->
            if i = pos then Char.chr (Random.State.int rng 256) else c)
          s
      | 1 -> String.sub s 0 pos
      | 2 ->
        String.sub s 0 pos
        ^ String.make 1 (Char.chr (Random.State.int rng 256))
        ^ String.sub s pos (String.length s - pos)
      | _ ->
        (* splice: head of one frame, tail of another *)
        let other = pick valid_frames in
        String.sub s 0 pos
        ^ String.sub other
            (min pos (String.length other))
            (String.length other - min pos (String.length other))
  in
  match Random.State.int rng 10 with
  | 0 ->
    (* pure noise *)
    String.init
      (Random.State.int rng 64)
      (fun _ -> Char.chr (Random.State.int rng 256))
  | 1 -> pick valid_frames
  | n ->
    let rec apply s k = if k = 0 then s else apply (mutate s) (k - 1) in
    apply (pick valid_frames) (if n < 6 then 1 else 1 + Random.State.int rng 4)

let check_protocol_fuzzer () =
  let cases = fuzz_cases () in
  let rng = Random.State.make [| 0xF0221 |] in
  let pid, socket = start_daemon () in
  let answered = ref 0 in
  Fun.protect
    ~finally:(fun () -> ignore (stop pid))
    (fun () ->
      let sent = ref 0 in
      let batches = ref 0 in
      while !sent < cases do
        let batch = min 50 (cases - !sent) in
        let lines = List.init batch (fun _ -> fuzz_line rng) in
        sent := !sent + batch;
        incr batches;
        let client = C.connect ~retry_for_s:10.0 socket in
        Fun.protect
          ~finally:(fun () -> C.close client)
          (fun () ->
            List.iter (fun l -> C.send_raw client l) lines;
            (* a trailing valid request bounds the drain: the daemon
               answers in order, so once the sync response arrives every
               fuzz response has been read. [read_response] parses each
               line on the way (a malformed response would fail the
               test) and returns early on null-id protocol rejections —
               loop until the sync id itself answers. A transport-level
               error means the storm killed the daemon: fail loudly. *)
            let sync_id = Printf.sprintf "sync%d" !batches in
            C.send client (P.make ~id:sync_id P.Health);
            let rec drain () =
              match
                C.read_response client ~id:sync_id ~on_other:(fun _ ->
                    incr answered)
              with
              | Ok _ -> ()
              | Error e
                when e.E.stage = "client.read" || e.E.stage = "client.connect"
                ->
                Alcotest.failf "daemon dropped the connection: %s"
                  (E.to_string e)
              | Error _ ->
                (* a null-id rejection of one fuzz frame *)
                incr answered;
                drain ()
            in
            drain ())
      done;
      (* after the storm: the daemon is alive, healthy, and actually
         answered things (the dictionary guarantees some well-formed
         error or result per batch) *)
      Alcotest.(check bool) "daemon answered fuzz frames" true (!answered > 0);
      let client = C.connect ~retry_for_s:10.0 socket in
      Fun.protect
        ~finally:(fun () -> C.close client)
        (fun () ->
          let h =
            expect_value "health after fuzzing"
              (C.rpc client (P.make ~id:"h" P.Health))
          in
          Alcotest.(check bool) "daemon survived the storm" true
            (Json.member "status" h = Some (Json.String "ok"))))

let suite =
  [
    Alcotest.test_case "registry snapshot round-trip" `Quick
      check_snapshot_roundtrip;
    Alcotest.test_case "corrupt snapshots are cold starts" `Quick
      check_snapshot_corruption;
    Alcotest.test_case "registry trim" `Quick check_trim;
    Alcotest.test_case "events flush on shutdown" `Quick check_events_flush;
    Alcotest.test_case "socket-level fault sites" `Quick
      check_socket_fault_sites;
    Alcotest.test_case "idem key round-trip" `Quick check_idem_roundtrip;
    QCheck_alcotest.to_alcotest prop_request_of_line_total;
    QCheck_alcotest.to_alcotest prop_mutated_frame_total;
    Alcotest.test_case "supervisor restart + idempotent replay" `Slow
      check_supervisor_restart_replay;
    Alcotest.test_case "restart budget exhausted exits 4" `Slow
      check_supervisor_budget_exhausted;
    Alcotest.test_case "sigterm after a crash stops the supervisor" `Slow
      check_supervisor_stops_after_crash;
    Alcotest.test_case "kill spares health and stats" `Slow
      check_kill_spares_health_and_stats;
    Alcotest.test_case "degraded mode sheds compute" `Slow check_degraded_mode;
    Alcotest.test_case "torn write replay dedupes" `Slow
      check_torn_write_replay;
    Alcotest.test_case "live protocol fuzzer" `Slow check_protocol_fuzzer;
  ]
