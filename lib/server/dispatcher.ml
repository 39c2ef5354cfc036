module Json = Telemetry.Json
module E = Scanpower_errors
module Flow = Scanpower.Flow
module Sweep = Scanpower.Sweep
module Registry = Scanpower.Registry

(* Idempotency: replayed requests (same "idem" key) return the stored
   Ok response instead of executing again. Bounded FIFO — dedup is a
   correctness aid for reconnect windows measured in seconds, not a
   durable result store. *)
let idem_capacity = 1024

type idem_entry = { stored : Json.t option; executions : int }

type t = {
  registry : Registry.t;
  generation : int;
  started_at : float;
  idem_table : (string, idem_entry) Hashtbl.t;
  idem_order : string Queue.t;
  mutable idem_replays : int;
  mutable served : int;
  mutable forked : int;
}

let create ?(registry_capacity = 32) ?(generation = 0) () =
  {
    registry = Registry.create ~capacity:registry_capacity ();
    generation;
    started_at = Unix.gettimeofday ();
    idem_table = Hashtbl.create 64;
    idem_order = Queue.create ();
    idem_replays = 0;
    served = 0;
    forked = 0;
  }

let registry t = t.registry

let generation t = t.generation

let idem_record t key entry =
  if not (Hashtbl.mem t.idem_table key) then begin
    Queue.push key t.idem_order;
    while Queue.length t.idem_order > idem_capacity do
      Hashtbl.remove t.idem_table (Queue.pop t.idem_order)
    done
  end;
  Hashtbl.replace t.idem_table key entry

(* ---- circuit resolution ---- *)

(* [Bench_parser] raises structured Parse/Validation errors for inline
   text; built-in names fail as Usage listing the valid names, exactly
   like the CLI. *)
let resolve_circuit (spec : Protocol.circuit_spec) =
  match spec with
  | Protocol.Named n -> (
    match Circuits.find n with
    | Ok c -> c
    | Error msg ->
      E.raise_error ~code:E.Usage ~stage:"server.dispatch"
        (msg ^ "; or ship the netlist inline under \"bench\""))
  | Protocol.Inline { name; bench } ->
    Netlist.Bench_parser.parse_string ~name bench

let require_circuit (req : Protocol.request) =
  match req.Protocol.circuit with
  | Some spec -> resolve_circuit spec
  | None ->
    (* parse_request enforces this; defensive for programmatic use *)
    E.raise_error ~code:E.Usage ~stage:"server.dispatch"
      (Printf.sprintf "%S needs a circuit"
         (Protocol.kind_to_string req.Protocol.kind))

(* ---- request bodies ---- *)

(* Identical computation to the one-shot [scanpower power] CLI:
   prepare (default ATPG config) + evaluate at the request seed. The
   registry replaces the prepare on a warm hit — legal because
   [prepare] is deterministic in (netlist text, ATPG config), which is
   exactly what {!Flow.prepare_key} digests, and [evaluate] never
   mutates a [prepared]. Bit-identity is pinned by a golden test. *)
let flow_value t (req : Protocol.request) =
  let c = require_circuit req in
  let key = Flow.prepare_key c in
  let prepared, hit =
    Registry.find_or_prepare t.registry ~key
      ~name:(Netlist.Circuit.name c)
      (fun () -> Flow.prepare c)
  in
  let comparison = Flow.evaluate ~seed:req.Protocol.seed prepared in
  Json.Obj
    [
      ("circuit", Json.String (Netlist.Circuit.name c));
      ("seed", Json.Int req.Protocol.seed);
      ("registry_hit", Json.Bool hit);
      ("registry_key", Json.String key);
      ("comparison", Sweep.comparison_to_json comparison);
    ]

let atpg_value t (req : Protocol.request) =
  let c = require_circuit req in
  let config =
    { Atpg.Pattern_gen.default_config with
      Atpg.Pattern_gen.seed = req.Protocol.seed }
  in
  let key = Flow.prepare_key ~atpg_config:config c in
  let prepared, hit =
    Registry.find_or_prepare t.registry ~key
      ~name:(Netlist.Circuit.name c)
      (fun () -> Flow.prepare ~atpg_config:config c)
  in
  let summary =
    match Sweep.atpg_to_json (Flow.atpg_summary_of prepared.Flow.atpg) with
    | Json.Obj fields -> fields
    | _ -> []
  in
  Json.Obj
    ([
       ("circuit", Json.String (Netlist.Circuit.name c));
       ("seed", Json.Int req.Protocol.seed);
       ("registry_hit", Json.Bool hit);
       ("n_vectors", Json.Int (List.length prepared.Flow.vectors));
     ]
    @ summary)

let diagnostic_json (d : Netlist.Validate.diagnostic) =
  Json.Obj
    [
      ("severity",
       Json.String
         (match d.Netlist.Validate.severity with
         | Netlist.Validate.Error -> "error"
         | Netlist.Validate.Warning -> "warning"));
      ("check", Json.String d.Netlist.Validate.check);
      ("net", Json.String d.Netlist.Validate.net);
      ("line", Json.Int d.Netlist.Validate.line);
      ("message", Json.String d.Netlist.Validate.message);
    ]

(* validate never raises on bad netlist text: the diagnostics ARE the
   answer. Inline text goes through the non-raising [lint] (syntax +
   semantic); a built-in name is lint-clean by construction so only
   the circuit-level checks apply. *)
let validate_value (req : Protocol.request) =
  let name, diags =
    match req.Protocol.circuit with
    | Some (Protocol.Inline { name; bench }) ->
      (name, Netlist.Bench_parser.lint bench)
    | Some (Protocol.Named _) | None ->
      let c = require_circuit req in
      (Netlist.Circuit.name c, Netlist.Validate.circuit c)
  in
  let errors = List.length (Netlist.Validate.errors diags) in
  Json.Obj
    [
      ("circuit", Json.String name);
      ("ok", Json.Bool (errors = 0));
      ("errors", Json.Int errors);
      ("diagnostics", Json.List (List.map diagnostic_json diags));
    ]

(* One sweep point through the real [Sweep] machinery (sequential
   runner, in-process), so job identity — and with it the chaos
   injector's per-site keying and the Atpg_abort cache bypass — is
   exactly the CLI's. The point prepares through the dispatcher's own
   registry, so it shares warm entries with [flow] requests (same key:
   default ATPG config), and trim, snapshot and [stats] see it. *)
let sweep_point_value t (req : Protocol.request) =
  let c = require_circuit req in
  let points = Sweep.points ~seeds:[ req.Protocol.seed ] [ c ] in
  let report =
    Sweep.run ~jobs:1 ~capture_telemetry:false ~registry:t.registry points
  in
  match report.Sweep.results with
  | [ jr ] -> (
    match jr.Sweep.comparison with
    | Ok comparison ->
      Json.Obj
        [
          ("circuit", Json.String jr.Sweep.circuit);
          ("seed", Json.Int jr.Sweep.seed);
          ("from_cache", Json.Bool jr.Sweep.from_cache);
          ("attempts", Json.Int jr.Sweep.attempts);
          ("comparison", Sweep.comparison_to_json comparison);
        ]
    | Error msg ->
      E.raise_error ~circuit:jr.Sweep.circuit ~code:E.Runtime
        ~stage:"server.sweep_point" msg)
  | _ ->
    E.raise_error ~code:E.Runtime ~stage:"server.sweep_point"
      "sweep returned an unexpected result count"

let health_value t ~extra =
  Json.Obj
    ([
       ("status", Json.String "ok");
       ("pid", Json.Int (Unix.getpid ()));
       ("generation", Json.Int t.generation);
       ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
       ("served", Json.Int t.served);
       ("registry_entries", Json.Int (Registry.stats t.registry).Registry.s_entries);
     ]
    @ extra)

let stats_value t ~extra =
  Json.Obj
    ([
       ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
       ("served", Json.Int t.served);
       ("generation", Json.Int t.generation);
       ("idem",
        Json.Obj
          [
            ("keys", Json.Int (Hashtbl.length t.idem_table));
            ("replays", Json.Int t.idem_replays);
          ]);
       ("parallel", Json.Obj [ ("forked", Json.Int t.forked) ]);
       ("registry", Registry.stats_json t.registry);
     ]
    @ extra)

(* ---- isolation ---- *)

(* Fork isolation: one job through the runner pool under this resident
   parent. The child inherits the warm registry copy-on-write (warm
   requests stay warm) and any crash — a segfault on a hostile
   netlist, an injected Child_crash — is contained as a structured
   Runtime error instead of taking the daemon down. Structured errors
   raised inside the child survive the pipe via an ok/error envelope:
   [Job_error] would otherwise flatten them to a string. *)
let run_forked ~id ~timeout_s compute =
  let job =
    {
      Runner.id;
      cache_key = None;
      run =
        (fun ~attempt:_ ->
          match compute () with
          | v -> Json.Obj [ ("ok", Json.Bool true); ("value", v) ]
          | exception exn ->
            let e = E.of_exn ~stage:"server.dispatch" exn in
            Json.Obj [ ("ok", Json.Bool false); ("error", E.to_json e) ]);
    }
  in
  let config =
    { Runner.default_config with
      Runner.jobs = 2;
      retries = 0;
      capture_telemetry = false;
      timeout_s = (match timeout_s with Some s -> s | None -> 0.0);
    }
  in
  match Runner.run ~config [ job ] with
  | [ { Runner.outcome = Runner.Done { value; _ }; _ } ], _ -> (
    match (Json.member "ok" value, Json.member "value" value,
           Json.member "error" value)
    with
    | Some (Json.Bool true), Some v, _ -> Ok v
    | Some (Json.Bool false), _, Some err -> (
      match E.of_json err with
      | Ok e -> Error e
      | Error msg ->
        Error (E.make ~code:E.Runtime ~stage:"server.dispatch" msg))
    | _ ->
      Error
        (E.make ~code:E.Runtime ~stage:"server.dispatch"
           "forked worker returned a malformed envelope"))
  | [ { Runner.outcome = Runner.Failed { last; _ }; _ } ], _ ->
    let e =
      match last with
      | Runner.Timed_out ->
        E.make ~code:E.Deadline ~stage:"server.dispatch"
          "request deadline expired in the isolated worker"
      | Runner.Crashed msg ->
        E.make ~code:E.Runtime ~stage:"server.dispatch"
          ("isolated worker crashed: " ^ msg)
      | Runner.Job_error msg ->
        E.make ~code:E.Runtime ~stage:"server.dispatch" msg
      | Runner.Interrupted | Runner.Deadline_exceeded ->
        E.make ~code:E.Deadline ~stage:"server.dispatch"
          "request cut short by shutdown"
    in
    Error e
  | _ ->
    Error
      (E.make ~code:E.Runtime ~stage:"server.dispatch"
         "runner returned an unexpected result count")

(* ---- entry point ---- *)

let compute t ~extra (req : Protocol.request) =
  match req.Protocol.kind with
  | Protocol.Flow -> flow_value t req
  | Protocol.Atpg -> atpg_value t req
  | Protocol.Validate -> validate_value req
  | Protocol.Sweep_point -> sweep_point_value t req
  | Protocol.Health -> health_value t ~extra
  | Protocol.Stats -> stats_value t ~extra

(* [idem_executions] rides inside the response value so a client (and
   the chaos test) can assert zero duplicate execution after a replay:
   the stored response is returned verbatim, counter and all. *)
let with_executions value n =
  match value with
  | Json.Obj fields -> Json.Obj (fields @ [ ("idem_executions", Json.Int n) ])
  | other -> other

let execute t ~extra ~deadline_left (req : Protocol.request) =
  let circuit_label =
    match req.Protocol.circuit with
    | Some (Protocol.Named n) -> Some n
    | Some (Protocol.Inline { name; _ }) -> Some name
    | None -> None
  in
  (* only a request that names a circuit does work worth isolating;
     [health]/[stats] always answer from the daemon itself *)
  if
    req.Protocol.isolation = Protocol.Fork_isolation
    && Protocol.needs_circuit req.Protocol.kind
  then begin
    t.forked <- t.forked + 1;
    run_forked ~id:req.Protocol.id ~timeout_s:deadline_left (fun () ->
        compute t ~extra req)
  end
  else
    try Ok (compute t ~extra req)
    with exn ->
      Error (E.of_exn ~stage:"server.dispatch" ?circuit:circuit_label exn)

let handle t ?(extra = []) ?deadline_left (req : Protocol.request) =
  (* Mid-request SIGKILL chaos: the roll key includes the supervisor
     generation, so a spec that kills generation N lets the restarted
     generation N+1 serve the replay (Fault_inject.fires is pure in
     the key, so tests pick such seeds deterministically). Only a
     request that names a circuit rolls, the same rule as fork
     isolation: [health]/[stats] read the daemon's own state, which a
     kill would reset before the replay could report it. *)
  if
    Protocol.needs_circuit req.Protocol.kind
    && Runner.Fault_inject.fires Runner.Fault_inject.Worker_kill
         ~key:(Printf.sprintf "%s#gen%d" req.Protocol.id t.generation)
  then Unix.kill (Unix.getpid ()) Sys.sigkill;
  let result =
    match req.Protocol.idem with
    | None -> execute t ~extra ~deadline_left req
    | Some key -> (
      match Hashtbl.find_opt t.idem_table key with
      | Some { stored = Some value; _ } ->
        t.idem_replays <- t.idem_replays + 1;
        Ok value
      | prev ->
        let executions =
          (match prev with Some e -> e.executions | None -> 0) + 1
        in
        (match execute t ~extra ~deadline_left req with
        | Ok value ->
          let value = with_executions value executions in
          idem_record t key { stored = Some value; executions };
          Ok value
        | Error _ as err ->
          (* errors are not stored: a replay after a failure should
             re-execute, and the counter keeps the history honest *)
          idem_record t key { stored = None; executions };
          err))
  in
  t.served <- t.served + 1;
  result
