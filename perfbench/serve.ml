(* serve-mix: a forked [Daemon.run] child under a closed loop of two
   client sessions, driven from this one process without threads. The
   sessions take turns, one request in flight at a time: [Client] reads
   block on one connection, so without threads the loop cannot wait on
   both at once. Every latency is therefore the daemon's own work on
   that request plus the protocol round trip, with no queueing. *)

module D = Scanpower_server.Daemon
module C = Scanpower_server.Client
module P = Scanpower_server.Protocol
module Json = Telemetry.Json
module Flow = Scanpower.Flow

let now = Unix.gettimeofday

(* A run times at least this many requests, so p90 has far more than
   ten samples beyond it. The daemon's peak RSS is read right after
   exactly this many: its idempotency table keeps every reply (up to
   1024), so a peak read at the end would grow with throughput. *)
let min_requests = 400

type tenant = { name : string; bench : string }

let tenants ~seed =
  let circuits, gen_s =
    Workloads.timed (fun () -> List.map Circuits.generate (Mix.tenant_profiles ~seed))
  in
  let (), val_s = Workloads.timed (fun () -> List.iter Layers.check_valid circuits) in
  let texts =
    Array.of_list
      (List.map
         (fun c ->
           { name = Netlist.Circuit.name c; bench = Netlist.Bench_writer.to_string c })
         circuits)
  in
  (texts, gen_s, val_s)

let request tenants ~id item =
  match (item : Mix.item) with
  | Health -> P.make ~id P.Health
  | Stats -> P.make ~id P.Stats
  | Validate i -> P.make ~id ~bench:tenants.(i).bench ~name:tenants.(i).name P.Validate
  | Atpg_warm c ->
    (* the default ATPG seed, so the key matches the flow-warmed entry *)
    P.make ~id ~circuit:c ~seed:Atpg.Pattern_gen.default_config.seed P.Atpg
  | Flow_warm (c, seed) -> P.make ~id ~circuit:c ~seed P.Flow
  | Flow_fork (c, seed) -> P.make ~id ~circuit:c ~seed ~isolation:P.Fork_isolation P.Flow
  | Sweep_point seed -> P.make ~id ~circuit:Mix.sweep_circuit ~seed P.Sweep_point
  | Tenant_flow (i, seed) ->
    P.make ~id ~bench:tenants.(i).bench ~name:tenants.(i).name ~seed P.Flow

(* Daemons not yet stopped, so that an exception anywhere in the
   workload still stops them before the process exits. *)
let live = ref []

let start_daemon socket =
  flush_all ();
  match Unix.fork () with
  | 0 -> (
    let config = { D.default_config with D.socket; log = None } in
    match D.run ~config () with
    | _ -> Unix._exit 0
    | exception _ -> Unix._exit 3)
  | pid ->
    live := pid :: !live;
    pid

(* SIGTERM, then wait for the drain. A drain that does not exit 0 (or
   needs SIGKILL after 30 s) is unclean; it is reported, not counted as
   a failed request. *)
let stop_daemon pid =
  live := List.filter (( <> ) pid) !live;
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      false
    | _, status -> status = Unix.WEXITED 0
  in
  wait ()

let ok_value what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Scanpower_errors.to_string e)

type daemon = { pid : int; sessions : C.session array }

(* Set-up: generate the tenants, fork the daemon, and warm the registry
   with one flow per named circuit (plus the sweep memo), alternating
   sessions so both are connected before the load starts. The host's
   speed is sampled between the warm-up calls. Returns the raw generate
   and validate times. *)
let setup host ~seed ~socket =
  let tenants, gen_s, val_s = tenants ~seed in
  let pid = start_daemon socket in
  let sessions = Array.init 2 (fun _ -> C.session ~retry_for_s:30.0 socket) in
  (* ids stay unique: a session's idempotency key is pid, call count
     and id, so two sessions sending one id on the same call count
     would share a key and the second request would not run *)
  let warm i (kind, circuit) =
    let id = Printf.sprintf "warm-%d-%s" i circuit in
    ignore (ok_value ("set-up " ^ id) (C.call sessions.(i mod 2) (P.make ~id ~circuit ~seed kind)));
    Host.sample host
  in
  List.iteri warm
    ((P.Sweep_point, Mix.sweep_circuit)
    :: List.map (fun c -> (P.Flow, c)) (Array.to_list Mix.warm_circuits));
  ({ pid; sessions }, tenants, gen_s, val_s)

(* true when the daemon drained cleanly *)
let shutdown d =
  Array.iter C.close_session d.sessions;
  stop_daemon d.pid

type sample = { item : Mix.item; call : Host.interval; registry_hit : bool }

let member_path path v =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some v) path

let int_at path v = match member_path path v with Some (Json.Int n) -> n | _ -> 0

(* Checks on one reply; [seen] holds the first comparison served for
   each (circuit, seed), which every later reply must repeat exactly. *)
let check seen (item : Mix.item) v =
  let comparison () =
    match Option.map Scanpower.Sweep.comparison_of_json (Json.member "comparison" v) with
    | Some (Ok c) -> Ok c
    | Some (Error msg) -> Error msg
    | None -> Error "reply carries no comparison"
  in
  let repeat seed =
    match comparison () with
    | Error msg -> [ msg ]
    | Ok c -> (
      match Hashtbl.find_opt seen (c.Flow.name, seed) with
      | None ->
        Hashtbl.replace seen (c.Flow.name, seed) c;
        []
      | Some first -> Workloads.same ~what:("served " ^ c.Flow.name) c first)
  in
  match item with
  | Flow_warm (_, s) | Flow_fork (_, s) | Sweep_point s | Tenant_flow (_, s) -> repeat s
  | Validate _ ->
    if Json.member "ok" v = Some (Json.Bool true) then [] else [ "tenant netlist failed lint" ]
  | Health ->
    if Json.member "status" v = Some (Json.String "ok") then [] else [ "health not ok" ]
  | Atpg_warm _ | Stats -> []

let kind_label : Mix.item -> string = function
  | Health -> "health"
  | Stats -> "stats"
  | Validate _ -> "validate"
  | Atpg_warm _ -> "atpg_warm"
  | Flow_warm _ -> "flow_warm"
  | Flow_fork _ -> "flow_fork"
  | Sweep_point _ -> "sweep_point"
  | Tenant_flow _ -> "tenant"

(* The client samples the host's speed between requests, at most this
   often. *)
let sample_every_s = Host.interval_s

let run host ~seed ~seconds ~trace =
  let socket = Printf.sprintf ".perfbench-%d.sock" (Unix.getpid ()) in
  (* Set up five times: four daemons are drained straight away, the
     fifth serves the load. [setup_s] is the median of the five, each at
     its own speed. *)
  let reps = 5 in
  let unclean = ref 0 and generate = ref 0.0 and validate = ref 0.0 in
  let whole = ref Host.none and intervals = ref [] in
  let rec set_up i =
    let (d, tenants, g, v), interval = Host.timed host (fun () -> setup host ~seed ~socket) in
    generate := !generate +. g;
    validate := !validate +. v;
    whole := Host.add !whole interval;
    intervals := interval :: !intervals;
    if i = reps then (d, tenants)
    else begin
      if not (shutdown d) then incr unclean;
      set_up (i + 1)
    end
  in
  let d, tenants = set_up 1 in
  let per_rep s = s *. Host.speed_in host !whole /. float_of_int reps in
  let setup =
    { Workloads.setup_s = Stats.median (List.map (Host.at_speed host) !intervals);
      generate_s = per_rep !generate; validate_s = per_rep !validate }
  in
  let items = Mix.sequence ~seed 100_000 in
  let seen = Hashtbl.create 64 in
  let t = Workloads.tally () in
  let samples = ref [] in
  let trace_cost = ref 0.0 in
  (* In the traced run each call is a span; [trace_cost] adds up what
     the spans cost beyond the call itself. *)
  let spanned name f =
    if not trace then f ()
    else begin
      let t0 = now () in
      let inner = ref 0.0 in
      let v =
        Telemetry.Span.with_ ~name (fun () ->
            let i0 = now () in
            Fun.protect ~finally:(fun () -> inner := now () -. i0) f)
      in
      trace_cost := !trace_cost +. (now () -. t0 -. !inner);
      v
    end
  in
  if trace then Telemetry.enable ();
  let rss = ref 0.0 in
  let (), window =
    Host.timed host (fun () ->
        let start = now () and sampled = ref (now ()) in
        while now () -. start < seconds || t.attempted < min_requests do
          let k = t.attempted in
          let item = items.(k mod Array.length items) in
          let req = request tenants ~id:(Printf.sprintf "r%d" k) item in
          Workloads.attempt t host ~what:("serve-mix " ^ kind_label item) (fun () ->
              let reply, call =
                Host.timed host (fun () ->
                    match
                      spanned ("Client.call/" ^ kind_label item) (fun () ->
                          C.call d.sessions.(k mod 2) req)
                    with
                    | r -> Ok r
                    | exception e -> Error e)
              in
              let registry_hit =
                match reply with
                | Ok (Ok v) -> Json.member "registry_hit" v = Some (Json.Bool true)
                | _ -> false
              in
              (* every attempt has a latency, a failed one too *)
              samples := { item; call; registry_hit } :: !samples;
              match reply with
              | Error e -> raise e
              | Ok r -> check seen item (ok_value (kind_label item) r));
          if t.attempted = min_requests then rss := Workloads.peak_rss_mb (string_of_int d.pid);
          if now () -. !sampled >= sample_every_s then begin
            Host.sample host;
            sampled := now ()
          end
        done)
  in
  Telemetry.disable ();
  let stats = ok_value "final stats" (C.call d.sessions.(0) (P.make ~id:"final-stats" P.Stats)) in
  let replays = Array.fold_left (fun acc s -> acc + C.session_replays s) 0 d.sessions in
  if not (shutdown d) then incr unclean;
  let samples = List.rev !samples in
  let latency s = Host.at_speed host s.call in
  let p50 f =
    match List.filter f samples with
    | [] -> 0.0
    | xs -> Workloads.ms (Stats.median (List.map latency xs))
  in
  let kind k s = kind_label s.item = k in
  let latencies = List.map latency samples in
  let tail p =
    match Stats.percentile ~p latencies with
    | Some v -> v
    | None -> failwith "serve-mix: too few requests for the tail percentile"
  in
  (* sorted, so the float sums run in one order and repeat exactly *)
  let named =
    List.of_seq (Hashtbl.to_seq seen)
    |> List.filter (fun ((name, _), _) -> Array.mem name Mix.warm_circuits)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let values =
    if trace then
      [ ("circuits.generate_s", setup.generate_s);
        ("netlist.validate_s", setup.validate_s);
        ("server.health_p50_ms", p50 (kind "health"));
        ("server.validate_p50_ms", p50 (kind "validate"));
        ("server.atpg_warm_p50_ms", p50 (kind "atpg_warm"));
        ("server.flow_warm_p50_ms", p50 (kind "flow_warm"));
        ("server.flow_fork_p50_ms", p50 (kind "flow_fork"));
        ("server.sweep_point_p50_ms", p50 (kind "sweep_point"));
        ("server.tenant_miss_p50_ms", p50 (fun s -> kind "tenant" s && not s.registry_hit));
        ("server.registry_hits", float_of_int (int_at [ "registry"; "hits" ] stats));
        ("server.registry_misses", float_of_int (int_at [ "registry"; "misses" ] stats));
        ("server.registry_evictions", float_of_int (int_at [ "registry"; "evictions" ] stats));
        ("server.exec_forked", float_of_int (int_at [ "parallel"; "forked" ] stats));
        ("server.exec_domain", float_of_int (int_at [ "parallel"; "domain" ] stats));
        ("server.fork_fallbacks", float_of_int (int_at [ "parallel"; "fork_fallbacks" ] stats));
        ("server.overloaded", float_of_int (int_at [ "requests"; "overloaded" ] stats));
        ("server.deadline", float_of_int (int_at [ "requests"; "deadline" ] stats));
        ("client.replays", float_of_int replays);
        ("server.unclean_drains", float_of_int !unclean);
        ("trace.overhead_pct", 100.0 *. !trace_cost /. window.wall_s) ]
    else
      Workloads.end_to_end ~setup ~window_s:(Host.at_speed host window) ~rss:!rss
        ~latency:(Stats.median latencies, tail 90) t
      @ Workloads.quality named
  in
  { Metrics.attempted = t.attempted; failed = t.failed; correct = t.correct; values;
    wall = Workloads.wall ~host ~window t }

let serve_mix host ~seed ~seconds ~trace =
  if Par.Domain_pool.fork_unavailable () then
    failwith
      "serve-mix: this process has spawned a domain, and OCaml 5 then refuses \
       Unix.fork; the daemon must be forked first";
  Fun.protect
    ~finally:(fun () -> List.iter (fun pid -> ignore (stop_daemon pid)) !live)
    (fun () -> run host ~seed ~seconds ~trace)
