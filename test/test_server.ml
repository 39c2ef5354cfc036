(* The serving layer: protocol round-trip and robustness (torn lines,
   oversized requests, garbage JSON, unknown kinds, disconnects — a
   structured error or a clean close, never a daemon crash), the warm
   machine registry's LRU accounting, golden bit-identity between the
   daemon and the one-shot flow, admission control (overloaded,
   deadline), event streaming, fork isolation, and SIGTERM drain.

   Live-daemon tests fork a real [Daemon.run] child on a fresh socket
   and drive it through [Client] — the same code path as `scanpower
   serve` / `scanpower client` minus cmdliner. *)

module P = Scanpower_server.Protocol
module D = Scanpower_server.Daemon
module C = Scanpower_server.Client
module R = Scanpower.Registry
module E = Scanpower_errors
module Json = Telemetry.Json
module Flow = Scanpower.Flow
module Sweep = Scanpower.Sweep
module FI = Runner.Fault_inject

let sock_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sp-test-%d-%d.sock" (Unix.getpid ()) !counter)

let start_daemon ?(configure = fun c -> c) () =
  let socket = sock_path () in
  let config = configure { D.default_config with D.socket; log = None } in
  flush stdout;
  flush stderr;
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try ignore (D.run ~config ()) with _ -> ());
    Unix._exit 0
  end;
  (pid, socket)

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  snd (Unix.waitpid [] pid)

let with_daemon ?configure fn =
  let pid, socket = start_daemon ?configure () in
  Fun.protect
    ~finally:(fun () -> ignore (stop_daemon pid))
    (fun () -> fn socket)

let with_client socket fn =
  let client = C.connect ~retry_for_s:10.0 socket in
  Fun.protect ~finally:(fun () -> C.close client) (fun () -> fn client)

let small ?(gates = 30) name seed =
  Circuits.generate
    { Circuits.name; n_pi = 5; n_po = 3; n_ff = 4; n_gates = gates; seed }

let expect_value label = function
  | Ok v -> v
  | Error e -> Alcotest.fail (label ^ ": " ^ E.to_string e)

let expect_code label code = function
  | Ok _ -> Alcotest.fail (label ^ ": expected an error")
  | Error e ->
    Alcotest.(check string) label (E.code_to_string code)
      (E.code_to_string e.E.code);
    e

(* ------------------------------------------------------------------ *)
(* protocol: wire round-trip and field validation                      *)
(* ------------------------------------------------------------------ *)

let check_protocol_roundtrip () =
  let reqs =
    [
      P.make ~id:"a" ~circuit:"s27" P.Flow;
      P.make ~id:"b" ~bench:"INPUT(a)\n" ~name:"t" ~seed:7 ~deadline_s:1.5
        ~stream:true ~isolation:P.Fork_isolation P.Sweep_point;
      P.make ~id:"c" P.Health;
      P.make ~id:"d" ~circuit:"s344" ~seed:3 P.Atpg;
    ]
  in
  List.iter
    (fun r ->
      match P.parse_request (P.request_to_json r) with
      | Ok r' ->
        Alcotest.(check bool) ("round-trip " ^ r.P.id) true (r = r')
      | Error e -> Alcotest.fail (E.to_string e))
    reqs;
  (* wire form survives the JSON printer too *)
  List.iter
    (fun r ->
      let s = Json.to_string (P.request_to_json r) in
      match Json.of_string s with
      | Ok j -> (
        match P.parse_request j with
        | Ok r' -> Alcotest.(check bool) "printed round-trip" true (r = r')
        | Error e -> Alcotest.fail (E.to_string e))
      | Error m -> Alcotest.fail m)
    reqs

let check_protocol_validation () =
  let parse s =
    match Json.of_string s with
    | Ok j -> P.parse_request j
    | Error m -> Alcotest.fail m
  in
  ignore
    (expect_code "unknown kind" E.Usage
       (parse {|{"id":"x","kind":"frobnicate"}|}));
  ignore
    (expect_code "missing circuit" E.Usage (parse {|{"id":"x","kind":"flow"}|}));
  ignore (expect_code "missing id" E.Usage (parse {|{"kind":"health"}|}));
  ignore
    (expect_code "negative deadline" E.Usage
       (parse {|{"id":"x","kind":"health","deadline_s":-1}|}));
  ignore (expect_code "non-object" E.Usage (P.parse_request (Json.Int 3)))

(* ------------------------------------------------------------------ *)
(* registry: LRU accounting                                            *)
(* ------------------------------------------------------------------ *)

let check_registry_lru () =
  let reg = R.create ~capacity:2 () in
  let circuits = List.init 3 (fun i -> small (Printf.sprintf "r%d" i) (600 + i)) in
  let get c =
    let key = Flow.prepare_key c in
    R.find_or_prepare reg ~key ~name:(Netlist.Circuit.name c) (fun () ->
        Flow.prepare c)
  in
  let c0, c1, c2 =
    match circuits with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  ignore (get c0);
  ignore (get c1);
  Alcotest.(check bool) "warm hit" true (snd (get c0));
  (* inserting a third evicts the least recently used: c1 *)
  ignore (get c2);
  let s = R.stats reg in
  Alcotest.(check int) "capacity held" 2 s.R.s_entries;
  Alcotest.(check int) "one eviction" 1 s.R.s_evictions;
  Alcotest.(check bool) "c0 still resident" true (snd (get c0));
  Alcotest.(check bool) "c1 was evicted" false (snd (get c1));
  let s = R.stats reg in
  Alcotest.(check int) "hits counted" 2 s.R.s_hits;
  Alcotest.(check int) "misses counted" 4 s.R.s_misses;
  Alcotest.(check int) "c1's return evicted c2" 2 s.R.s_evictions;
  (* a failing build inserts nothing *)
  (match
     R.find_or_prepare reg ~key:"bad" ~name:"bad" (fun () -> failwith "boom")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "build failure must propagate");
  Alcotest.(check int) "no half-entry" 2 (R.stats reg).R.s_entries

(* ------------------------------------------------------------------ *)
(* flow prepare through the registry: stats + telemetry mirrors        *)
(* ------------------------------------------------------------------ *)

(* [Flow.prepare] keyed by [Flow.prepare_key] through a bounded
   registry: the capacity bound holds under a cyclic working set one
   larger than it, and the telemetry counters and gauge mirror the
   registry's own totals *)
let check_flow_prepare_stats () =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  let circuits =
    List.init 3 (fun i -> small (Printf.sprintf "fp%d" i) (700 + i))
  in
  let prepare_all reg =
    List.iter
      (fun c ->
        ignore
          (R.find_or_prepare reg ~key:(Flow.prepare_key c)
             ~name:(Netlist.Circuit.name c) (fun () -> Flow.prepare c)))
      circuits
  in
  let reg = R.create ~capacity:2 () in
  prepare_all reg;
  prepare_all reg;
  let s = R.stats reg in
  Alcotest.(check int) "bounded to capacity" 2 s.R.s_entries;
  (* second pass: c0 was evicted by c2's insert, and re-preparing
     it evicts c1, and so on — every second-pass lookup misses *)
  Alcotest.(check int) "misses" 6 s.R.s_misses;
  Alcotest.(check int) "hits" 0 s.R.s_hits;
  Alcotest.(check int) "evictions" 4 s.R.s_evictions;
  let counter name =
    match Telemetry.Counter.find name with
    | Some v -> v
    | None -> Alcotest.fail ("missing counter " ^ name)
  in
  let entries_gauge () =
    match Telemetry.Gauge.find "server.registry.entries" with
    | Some v -> int_of_float v
    | None -> Alcotest.fail "missing gauge server.registry.entries"
  in
  Alcotest.(check int) "entries gauge" 2 (entries_gauge ());
  Alcotest.(check int) "miss counter" 6 (counter "server.registry.miss");
  Alcotest.(check int) "eviction counter" 4
    (counter "server.registry.eviction");
  (* room for the whole working set: the second pass is all warm *)
  let reg = R.create ~capacity:3 () in
  prepare_all reg;
  prepare_all reg;
  let s = R.stats reg in
  Alcotest.(check int) "keeps all" 3 s.R.s_entries;
  Alcotest.(check int) "warm hits counted" 3 s.R.s_hits;
  Alcotest.(check int) "no evictions" 0 s.R.s_evictions;
  Alcotest.(check int) "entries gauge tracks" 3 (entries_gauge ());
  Alcotest.(check int) "hit counter tracks" s.R.s_hits
    (counter "server.registry.hit")

(* ------------------------------------------------------------------ *)
(* golden: daemon flow ≡ one-shot Flow.run_benchmark                   *)
(* ------------------------------------------------------------------ *)

let check_golden_bit_identity () =
  with_daemon (fun socket ->
      with_client socket (fun client ->
          let reference =
            Sweep.comparison_to_json
              (Flow.run_benchmark ~seed:7 (Circuits.by_name "s27"))
          in
          let ask i =
            let v =
              expect_value "flow"
                (C.rpc client
                   (P.make ~id:(Printf.sprintf "g%d" i) ~circuit:"s27" ~seed:7
                      P.Flow))
            in
            match Json.member "comparison" v with
            | Some c -> (c, Json.member "registry_hit" v)
            | None -> Alcotest.fail "flow value lacks a comparison"
          in
          let cold, hit0 = ask 0 in
          let warm, hit1 = ask 1 in
          Alcotest.(check bool) "cold misses the registry" true
            (hit0 = Some (Json.Bool false));
          Alcotest.(check bool) "second request hits the registry" true
            (hit1 = Some (Json.Bool true));
          Alcotest.(check bool) "cold result ≡ one-shot CLI" true
            (Json.equal reference cold);
          Alcotest.(check bool) "warm result ≡ one-shot CLI" true
            (Json.equal reference warm);
          (* sweep-point goes through the real Sweep machinery *)
          let direct =
            Sweep.run ~jobs:1 ~capture_telemetry:false
              (Sweep.points ~seeds:[ 5 ] [ Circuits.by_name "s27" ])
          in
          let direct_cmp =
            match (List.hd direct.Sweep.results).Sweep.comparison with
            | Ok c -> Sweep.comparison_to_json c
            | Error m -> Alcotest.fail m
          in
          let v =
            expect_value "sweep-point"
              (C.rpc client
                 (P.make ~id:"sp" ~circuit:"s27" ~seed:5 P.Sweep_point))
          in
          (match Json.member "comparison" v with
          | Some c ->
            Alcotest.(check bool) "sweep-point ≡ direct Sweep.run" true
              (Json.equal direct_cmp c)
          | None -> Alcotest.fail "sweep-point value lacks a comparison")))

(* a sweep point and a flow request on the same circuit share one
   registry entry: the flow after the sweep point is warm, both answer
   the same, and [stats] shows one store holding one entry *)
let check_sweep_point_shares_registry () =
  with_daemon (fun socket ->
      with_client socket (fun client ->
          let ask id kind =
            expect_value id
              (C.rpc client (P.make ~id ~circuit:"s27" ~seed:5 kind))
          in
          let sp = ask "sp" P.Sweep_point in
          let flow = ask "flow" P.Flow in
          Alcotest.(check bool) "flow after sweep-point hits" true
            (Json.member "registry_hit" flow = Some (Json.Bool true));
          (match (Json.member "comparison" sp, Json.member "comparison" flow) with
          | Some a, Some b ->
            Alcotest.(check bool) "sweep-point ≡ flow" true (Json.equal a b)
          | _ -> Alcotest.fail "a value lacks its comparison");
          let stats =
            expect_value "stats" (C.rpc client (P.make ~id:"stats" P.Stats))
          in
          let entries =
            Option.bind (Json.member "registry" stats) (Json.member "entries")
          in
          Alcotest.(check bool) "one resident entry" true
            (entries = Some (Json.Int 1));
          let stores =
            match stats with
            | Json.Obj fields ->
              List.filter
                (String.ends_with ~suffix:"registry")
                (List.map fst fields)
            | _ -> []
          in
          Alcotest.(check (list string)) "one store in stats" [ "registry" ]
            stores))

(* The atpg response splices in the sweep's ATPG summary, so its
   summary keys cannot drift from a flow's [comparison.atpg]. *)
let check_atpg_summary_keys () =
  with_daemon (fun socket ->
      with_client socket (fun client ->
          let ask id kind =
            expect_value id
              (C.rpc client (P.make ~id ~circuit:"s27" ~seed:5 kind))
          in
          let keys = function
            | Json.Obj fields -> List.sort String.compare (List.map fst fields)
            | _ -> Alcotest.fail "expected an object"
          in
          let atpg = ask "atpg" P.Atpg in
          let flow = ask "flow" P.Flow in
          let flow_summary =
            match
              Option.bind (Json.member "comparison" flow) (Json.member "atpg")
            with
            | Some a -> keys a
            | None -> Alcotest.fail "flow lacks comparison.atpg"
          in
          let envelope =
            [ "circuit"; "idem_executions"; "n_vectors"; "registry_hit"; "seed" ]
          in
          let atpg_summary =
            List.filter (fun k -> not (List.mem k envelope)) (keys atpg)
          in
          Alcotest.(check (list string)) "atpg summary keys = flow's"
            flow_summary atpg_summary))

(* ------------------------------------------------------------------ *)
(* robustness: hostile input never kills the daemon                    *)
(* ------------------------------------------------------------------ *)

let check_protocol_robustness () =
  with_daemon
    ~configure:(fun c -> { c with D.max_request_bytes = 4096 })
    (fun socket ->
      with_client socket (fun client ->
          (* malformed JSON: structured parse error, connection stays up *)
          C.send_raw client "this is not json {{{";
          (match C.read_response client ~id:"whatever" with
          | Error e ->
            Alcotest.(check string) "garbage is a parse error" "parse"
              (E.code_to_string e.E.code)
          | Ok _ -> Alcotest.fail "garbage accepted");
          (* unknown kind: usage error echoing the id *)
          C.send_raw client {|{"id":"u1","kind":"frobnicate"}|};
          ignore
            (expect_code "unknown kind" E.Usage
               (C.read_response client ~id:"u1"));
          (* unparsable netlist shipped inline: structured, not fatal *)
          let bad =
            expect_code "bad inline netlist" E.Parse
              (C.rpc client
                 (P.make ~id:"b1" ~bench:"G5 = NAND(" ~name:"bad" P.Flow))
          in
          Alcotest.(check bool) "names the stage" true
            (bad.E.stage = "bench_parser");
          (* oversized line: rejected with a validation error naming
             the cap, and the connection is dropped — an unbounded
             buffer is a memory hole, not a recoverable frame *)
          let big =
            Printf.sprintf {|{"id":"big","kind":"flow","bench":"%s"}|}
              (String.make 8000 '#')
          in
          C.send_raw client big;
          (match C.read_response client ~id:"big" with
          | Error e ->
            Alcotest.(check string) "oversized is validation" "validation"
              (E.code_to_string e.E.code)
          | Ok _ -> Alcotest.fail "oversized accepted");
          (match C.read_response client ~id:"never" with
          | Error e ->
            Alcotest.(check string) "oversized conn dropped" "io"
              (E.code_to_string e.E.code)
          | Ok _ -> Alcotest.fail "oversized connection kept serving"));
      (* the daemon itself keeps serving fresh connections *)
      with_client socket (fun client ->
          let v =
            expect_value "daemon survives it all"
              (C.rpc client (P.make ~id:"h" P.Health))
          in
          Alcotest.(check bool) "daemon healthy" true
            (Json.member "status" v = Some (Json.String "ok"))));
  (* torn line + disconnect mid-request: daemon unaffected *)
  with_daemon (fun socket ->
      let c1 = C.connect ~retry_for_s:10.0 socket in
      C.send_raw c1 {|{"id":"t1","kind":"flow","circ|};
      (* no newline: the fragment dies with the connection *)
      C.close c1;
      let c2 = C.connect ~retry_for_s:10.0 socket in
      C.send c2 (P.make ~id:"d1" ~circuit:"s344" P.Flow);
      (* hang up before the answer: the daemon must shrug *)
      C.close c2;
      with_client socket (fun client ->
          let v =
            expect_value "health after torn + disconnect"
              (C.rpc client (P.make ~id:"h2" P.Health))
          in
          Alcotest.(check bool) "daemon still serving" true
            (Json.member "status" v = Some (Json.String "ok"))))

(* ------------------------------------------------------------------ *)
(* sessions: idempotency keys never collide across sessions            *)
(* ------------------------------------------------------------------ *)

(* Two sessions in one process send the same id on the same call
   number, each asking about a different circuit. Each session's key
   must be its own: a shared key would make the daemon answer the
   second request with the first one's stored reply. *)
let check_sessions_keep_keys_apart () =
  with_daemon (fun socket ->
      let a = C.session socket and b = C.session socket in
      Fun.protect
        ~finally:(fun () ->
          C.close_session a;
          C.close_session b)
        (fun () ->
          let ask session circuit =
            let v =
              expect_value ("validate " ^ circuit)
                (C.call session (P.make ~id:"same" ~circuit P.Validate))
            in
            ( Json.member "circuit" v,
              Json.member "idem_executions" v )
          in
          let circuit_a, runs_a = ask a "s27" in
          let circuit_b, runs_b = ask b "s344" in
          Alcotest.(check bool) "first session answered for s27" true
            (circuit_a = Some (Json.String "s27"));
          Alcotest.(check bool) "second session answered for s344" true
            (circuit_b = Some (Json.String "s344"));
          Alcotest.(check bool) "each request executed once" true
            (runs_a = Some (Json.Int 1) && runs_b = Some (Json.Int 1))))

(* ------------------------------------------------------------------ *)
(* admission control: overloaded and deadline                          *)
(* ------------------------------------------------------------------ *)

let check_overloaded () =
  with_daemon
    ~configure:(fun c -> { c with D.max_queue = 0 })
    (fun socket ->
      with_client socket (fun client ->
          let e =
            expect_code "queue full" E.Overloaded
              (C.rpc client (P.make ~id:"o1" ~circuit:"s27" P.Flow))
          in
          Alcotest.(check int) "overloaded maps to exit 7" 7
            (E.exit_code e.E.code);
          Alcotest.(check string) "admission stage" "server.admission"
            e.E.stage))

let check_deadline_expired_in_queue () =
  with_daemon (fun socket ->
      with_client socket (fun client ->
          (* pipeline: both lines go out in one write, so the daemon
             reads and queues them together and the deadlined request
             waits behind a real flow; its (tiny) budget has expired by
             dequeue time. Sent one by one, the first could be read and
             run alone, and the second then waits under a microsecond *)
          let line r = Json.to_string (P.request_to_json r) in
          C.send_raw client
            (line (P.make ~id:"first" ~circuit:"s344" P.Flow)
            ^ "\n"
            ^ line (P.make ~id:"late" ~circuit:"s27" ~deadline_s:1e-6 P.Flow));
          (match C.read_response client ~id:"first" with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (E.to_string e));
          let e =
            expect_code "expired while queued" E.Deadline
              (C.read_response client ~id:"late")
          in
          Alcotest.(check int) "deadline maps to exit 8" 8
            (E.exit_code e.E.code)))

(* ------------------------------------------------------------------ *)
(* streaming: telemetry-bus events as tagged lines                     *)
(* ------------------------------------------------------------------ *)

let check_streaming_events () =
  with_daemon (fun socket ->
      with_client socket (fun client ->
          let events = ref [] in
          let on_event j = events := j :: !events in
          let _v =
            expect_value "streamed sweep-point"
              (C.rpc ~on_event client
                 (P.make ~id:"s1" ~circuit:"s27" ~stream:true P.Sweep_point))
          in
          let names =
            List.filter_map
              (fun line ->
                match Json.member "event" line with
                | Some ev -> (
                  match Json.member "event" ev with
                  | Some (Json.String name) -> Some name
                  | _ -> None)
                | None -> None)
              !events
          in
          List.iter
            (fun expected ->
              Alcotest.(check bool)
                (expected ^ " streamed") true (List.mem expected names))
            [ "server.request_started"; "sweep.job_started";
              "sweep.job_finished"; "server.request_finished" ];
          (* a non-streaming request gets no event lines *)
          let count_before = List.length !events in
          let _v =
            expect_value "quiet flow"
              (C.rpc ~on_event client (P.make ~id:"q1" ~circuit:"s27" P.Flow))
          in
          Alcotest.(check int) "no events without stream" count_before
            (List.length !events)))

(* ------------------------------------------------------------------ *)
(* fork isolation: crash containment, identical results                *)
(* ------------------------------------------------------------------ *)

(* Every isolation:fork request that names a circuit runs in a forked
   worker: two such flows on a small circuit both fork, and each reply
   is the inline one. *)
let check_fork_isolation () =
  with_daemon (fun socket ->
      with_client socket (fun client ->
          let cmp label v =
            match Json.member "comparison" v with
            | Some c -> c
            | None -> Alcotest.fail (label ^ ": no comparison")
          in
          let inline_v =
            expect_value "inline"
              (C.rpc client (P.make ~id:"i1" ~circuit:"s27" ~seed:9 P.Flow))
          in
          List.iter
            (fun id ->
              let fork_v =
                expect_value id
                  (C.rpc client
                     (P.make ~id ~circuit:"s27" ~seed:9
                        ~isolation:P.Fork_isolation P.Flow))
              in
              Alcotest.(check bool) (id ^ " forked ≡ inline") true
                (Json.equal (cmp "inline" inline_v) (cmp id fork_v)))
            [ "f1"; "f2" ];
          let stats = expect_value "stats" (C.rpc client (P.make ~id:"s" P.Stats)) in
          let forked =
            match Json.member "parallel" stats with
            | Some p -> Json.member "forked" p
            | None -> None
          in
          Alcotest.(check bool) "both flows forked" true
            (forked = Some (Json.Int 2))))

let check_fork_isolation_contains_crashes () =
  let crash = { FI.seed = 42; rates = [ (FI.Child_crash, 1.0) ] } in
  (* the daemon inherits the armed injector at fork time; its isolated
     workers then die on every attempt *)
  FI.with_spec (Some crash) (fun () ->
      with_daemon (fun socket ->
          with_client socket (fun client ->
              let e =
                expect_code "crashed worker is a structured error" E.Runtime
                  (C.rpc client
                     (P.make ~id:"c1" ~circuit:"s27"
                        ~isolation:P.Fork_isolation P.Flow))
              in
              Alcotest.(check bool) "mentions the crash" true
                (let msg = e.E.message in
                 let needle = "crash" in
                 let n = String.length needle and h = String.length msg in
                 let rec go i =
                   i + n <= h && (String.sub msg i n = needle || go (i + 1))
                 in
                 go 0);
              (* the daemon itself is unharmed — and inline requests
                 never touch the worker path *)
              let v =
                expect_value "inline still works"
                  (C.rpc client (P.make ~id:"c2" ~circuit:"s27" P.Flow))
              in
              Alcotest.(check bool) "daemon alive" true
                (Json.member "registry_hit" v <> None))))

(* ------------------------------------------------------------------ *)
(* SIGTERM drain                                                       *)
(* ------------------------------------------------------------------ *)

let check_sigterm_drains () =
  let pid, socket = start_daemon () in
  let client = C.connect ~retry_for_s:10.0 socket in
  (* make sure the daemon is actually serving before we kill it *)
  (match C.rpc client (P.make ~id:"h" P.Health) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (E.to_string e));
  C.send client (P.make ~id:"w1" ~circuit:"s344" ~stream:true P.Flow);
  (* pull the plug once the daemon has dequeued the request: it emits
     [server.request_started] (and flushes it to us) only then, before
     it computes the answer *)
  let killed = ref false in
  let on_event line =
    match Json.member "event" line with
    | Some ev
      when (not !killed)
           && Json.member "event" ev
              = Some (Json.String "server.request_started") ->
      killed := true;
      Unix.kill pid Sys.sigterm
    | _ -> ()
  in
  (match C.read_response ~on_event client ~id:"w1" with
  | Ok v ->
    Alcotest.(check bool) "drained request still answered" true
      (Json.member "comparison" v <> None)
  | Error e -> Alcotest.fail ("drain lost the request: " ^ E.to_string e));
  if not !killed then begin
    Unix.kill pid Sys.sigterm;
    Alcotest.fail "no request_started event before the result"
  end;
  (* after the drain: connection closed, clean exit, socket unlinked *)
  (match C.read_response client ~id:"nothing-else" with
  | Error e ->
    Alcotest.(check string) "connection closed after drain" "io"
      (E.code_to_string e.E.code)
  | Ok _ -> Alcotest.fail "unexpected extra response");
  C.close client;
  (* wait, and send no second SIGTERM: once [Daemon.run] has returned
     it has restored the default handler, and a second signal landing
     before the child's exit would kill it *)
  (match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "daemon must exit 0 after SIGTERM");
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)

let suite =
  [
    Alcotest.test_case "protocol wire round-trip" `Quick
      check_protocol_roundtrip;
    Alcotest.test_case "protocol field validation" `Quick
      check_protocol_validation;
    Alcotest.test_case "registry LRU accounting" `Quick check_registry_lru;
    Alcotest.test_case "flow prepare registry stats + gauges" `Quick
      check_flow_prepare_stats;
    Alcotest.test_case "golden: daemon ≡ one-shot flow" `Quick
      check_golden_bit_identity;
    Alcotest.test_case "sweep-point shares the flow registry" `Quick
      check_sweep_point_shares_registry;
    Alcotest.test_case "atpg summary keys match flow's" `Quick
      check_atpg_summary_keys;
    Alcotest.test_case "protocol robustness against hostile input" `Quick
      check_protocol_robustness;
    Alcotest.test_case "sessions keep idempotency keys apart" `Quick
      check_sessions_keep_keys_apart;
    Alcotest.test_case "overloaded admission (exit 7)" `Quick check_overloaded;
    Alcotest.test_case "deadline expiry in queue (exit 8)" `Quick
      check_deadline_expired_in_queue;
    Alcotest.test_case "streamed events tagged by request" `Quick
      check_streaming_events;
    Alcotest.test_case "fork isolation matches inline" `Quick
      check_fork_isolation;
    Alcotest.test_case "fork isolation contains crashes" `Quick
      check_fork_isolation_contains_crashes;
    Alcotest.test_case "sigterm drains and exits clean" `Quick
      check_sigterm_drains;
  ]
