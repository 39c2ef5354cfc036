(* Telemetry subsystem: span nesting and timing, the counter/gauge
   registry, JSON snapshot round-tripping, and the core guarantee that
   instrumentation only observes — flow results are bit-identical with
   telemetry on or off, and identical to the pre-telemetry seed. *)

module T = Telemetry
module J = Telemetry.Json

let with_telemetry fn =
  T.reset ();
  T.enable ();
  Fun.protect
    ~finally:(fun () ->
      T.disable ();
      T.reset ())
    fn

(* ---------- spans ---------- *)

let check_disabled_is_noop () =
  T.reset ();
  Alcotest.(check bool) "off by default here" false (T.enabled ());
  let r = T.Span.with_ ~name:"ghost" (fun () -> 41 + 1) in
  Alcotest.(check int) "transparent" 42 r;
  Alcotest.(check int) "no span recorded" 0 (List.length (T.Span.roots ()));
  let c = T.Counter.make "test.noop" in
  T.Counter.inc c;
  T.Counter.add c 10;
  Alcotest.(check int) "counter increments dropped" 0 (T.Counter.get c)

let check_span_nesting_and_timing () =
  with_telemetry (fun () ->
      let spin = ref 0.0 in
      T.Span.with_ ~name:"outer" (fun () ->
          T.Span.with_ ~name:"first" (fun () ->
              for i = 1 to 10_000 do
                spin := !spin +. float_of_int i
              done);
          T.Span.with_ ~name:"second" (fun () -> ignore (Sys.opaque_identity !spin)));
      match T.Span.roots () with
      | [ outer ] ->
        Alcotest.(check string) "root name" "outer" outer.T.Span.name;
        let kids = T.Span.children outer in
        Alcotest.(check (list string)) "children in execution order"
          [ "first"; "second" ]
          (List.map (fun s -> s.T.Span.name) kids);
        let d_outer = T.Span.duration_s outer in
        Alcotest.(check bool) "outer duration non-negative" true (d_outer >= 0.0);
        List.iter
          (fun kid ->
            let d = T.Span.duration_s kid in
            Alcotest.(check bool) "child duration non-negative" true (d >= 0.0);
            Alcotest.(check bool) "child starts after parent" true
              (kid.T.Span.start >= outer.T.Span.start);
            Alcotest.(check bool) "child within parent" true
              (d <= d_outer +. 1e-9))
          kids;
        Alcotest.(check bool) "children sum within parent" true
          (List.fold_left (fun acc k -> acc +. T.Span.duration_s k) 0.0 kids
          <= d_outer +. 1e-9)
      | roots -> Alcotest.failf "expected one root, got %d" (List.length roots))

let check_span_survives_exception () =
  with_telemetry (fun () ->
      (try
         T.Span.with_ ~name:"root" (fun () ->
             T.Span.with_ ~name:"boom" (fun () -> failwith "expected"))
       with Failure _ -> ());
      match T.Span.find "boom" with
      | None -> Alcotest.fail "span closed by exception should still be recorded"
      | Some s ->
        Alcotest.(check bool) "closed" true (T.Span.duration_s s >= 0.0))

(* ---------- counters and gauges ---------- *)

let check_counter_registry_reset () =
  with_telemetry (fun () ->
      let c = T.Counter.make "test.counter" in
      Alcotest.(check bool) "same handle for same name" true
        (c == T.Counter.make "test.counter");
      T.Counter.inc c;
      T.Counter.add c 5;
      Alcotest.(check int) "accumulated" 6 (T.Counter.get c);
      Alcotest.(check (option int)) "find by name" (Some 6)
        (T.Counter.find "test.counter");
      T.reset ();
      Alcotest.(check int) "reset between runs" 0 (T.Counter.get c);
      Alcotest.(check (option int)) "still registered" (Some 0)
        (T.Counter.find "test.counter"))

let check_gauge () =
  with_telemetry (fun () ->
      let g = T.Gauge.make "test.gauge" in
      Alcotest.(check (option (float 0.0))) "unset" None (T.Gauge.get g);
      T.Gauge.observe_max g 3.0;
      T.Gauge.observe_max g 1.0;
      Alcotest.(check (option (float 1e-12))) "max kept" (Some 3.0) (T.Gauge.get g);
      T.Gauge.set g 0.5;
      Alcotest.(check (option (float 1e-12))) "set overrides" (Some 0.5)
        (T.Gauge.get g))

(* ---------- JSON ---------- *)

let check_json_roundtrip_value () =
  let v =
    J.Obj
      [
        ("name", J.String "s27 \"quoted\" \\ tab\there\nnewline");
        ("count", J.Int 42);
        ("negative", J.Int (-7));
        ("pi", J.Float 3.141592653589793);
        ("tenth", J.Float 0.1);
        ("whole", J.Float 3.0);
        ("tiny", J.Float 1.25e-300);
        ("flag", J.Bool true);
        ("nothing", J.Null);
        ("seq", J.List [ J.Int 1; J.List []; J.Obj []; J.String "" ]);
      ]
  in
  match J.of_string (J.to_string v) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok v' ->
    Alcotest.(check bool) "round-trips exactly" true (J.equal v v');
    Alcotest.(check bool) "member" true
      (J.member "count" v' = Some (J.Int 42))

let check_json_rejects_garbage () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" s
      | Error _ -> ())
    [ "{"; "[1,"; "nul"; "\"open"; "{\"a\" 1}"; "[1] trailing" ]

let check_snapshot_roundtrip () =
  with_telemetry (fun () ->
      let c = T.Counter.make "test.snapshot.counter" in
      T.Counter.add c 3;
      T.Gauge.set (T.Gauge.make "test.snapshot.gauge") 2.5;
      T.Span.with_ ~name:"snap" (fun () ->
          T.Span.with_ ~name:"inner" (fun () -> ()));
      let snap = T.metrics_snapshot () in
      (match J.of_string (J.to_string snap) with
      | Error e -> Alcotest.failf "snapshot reparse failed: %s" e
      | Ok snap' ->
        Alcotest.(check bool) "snapshot round-trips" true (J.equal snap snap'));
      Alcotest.(check bool) "schema tagged" true
        (J.member "schema" snap = Some (J.String "scanpower.telemetry/1")))

(* ---------- the flow under telemetry ---------- *)

let expected_phases =
  [
    "flow.run_benchmark"; "flow.prepare"; "techmap"; "atpg"; "flow.evaluate";
    "scan_sim.traditional"; "scan_sim.enhanced"; "c_algorithm";
    "scan_sim.input_control"; "mux_select"; "observability";
    "controlled_pattern"; "ivc"; "reorder"; "scan_sim.proposed";
  ]

let check_flow_phase_tree () =
  with_telemetry (fun () ->
      let _ = Scanpower.Flow.run_benchmark (Circuits.s27 ()) in
      List.iter
        (fun name ->
          match T.Span.find name with
          | Some s ->
            Alcotest.(check bool)
              (name ^ " has a duration")
              true
              (T.Span.duration_s s >= 0.0)
          | None -> Alcotest.failf "phase %s missing from span tree" name)
        expected_phases;
      Alcotest.(check bool) "ivc trials counted" true
        (match T.Counter.find "core.ivc.trials" with
        | Some n -> n > 0
        | None -> false);
      Alcotest.(check bool) "podem backtracks registered" true
        (T.Counter.find "atpg.podem.backtracks" <> None);
      Alcotest.(check bool) "scan sim cycles counted" true
        (match T.Counter.find "scan.sim.cycles" with
        | Some n -> n > 0
        | None -> false))

let check_flow_bit_identical_on_off () =
  T.disable ();
  T.reset ();
  let off = Scanpower.Flow.run_benchmark (Circuits.s27 ()) in
  let on = with_telemetry (fun () -> Scanpower.Flow.run_benchmark (Circuits.s27 ())) in
  Alcotest.(check bool) "comparison identical with telemetry on vs off" true
    (off = on)

(* Golden values, telemetry disabled, s344 at the default seed 42. Hex
   float literals are exact: any drift — however small — means the
   flow's numbers moved. The oracle goldens pin the event-driven scan
   oracle ({!Scan_oracle}), run on the four structures [Flow.evaluate]
   measures, to the pre-telemetry seed build; the packed goldens pin
   [Flow.run_benchmark] to its own output before its lane counting was
   rewritten. The two agree exactly on toggles and dynamic power and to
   accumulation order on statics (the packed-sim suite checks that).
   Each is (dynamic/f, static, peak static, toggles) for traditional,
   input control, proposed and enhanced scan. *)
let s344_oracle_goldens =
  [
    (0x1.d9de3c0fa8189p-25, 0x1.ee052d0f39c79p+4, 0x1.23adaa635ba18p+5, 18654);
    (0x1.b4b4b8847d70bp-25, 0x1.ec114ab14076ep+4, 0x1.21e69437d1ae3p+5, 18484);
    (0x1.b69c4ead2a6d3p-27, 0x1.9e84c88ceddc6p+4, 0x1.1fdc64d51f761p+5, 4054);
    (0x1.db5e0be0a176ep-28, 0x1.fcecb06f1562fp+4, 0x1.21e69437d1aa9p+5, 2290);
  ]

let s344_packed_goldens =
  [
    (0x1.d9de3c0fa8189p-25, 0x1.ee052d0f39c4ap+4, 0x1.23adaa635b9e6p+5, 18654);
    (0x1.b4b4b8847d70bp-25, 0x1.ec114ab14074ap+4, 0x1.21e69437d1aa6p+5, 18484);
    (0x1.b69c4ead2a6d3p-27, 0x1.9e84c88ceddd3p+4, 0x1.1fdc64d51f773p+5, 4054);
    (0x1.db5e0be0a176ep-28, 0x1.fcecb06f1562fp+4, 0x1.21e69437d1aa6p+5, 2290);
  ]

let technique_of (m : Scan.Scan_sim.result) =
  {
    Scanpower.Flow.dynamic_per_hz_uw =
      m.Scan.Scan_sim.dynamic.Power.Switching.dynamic_per_hz_uw;
    static_uw = m.Scan.Scan_sim.avg_static_uw;
    peak_static_uw = m.Scan.Scan_sim.peak_static_uw;
    total_toggles = m.Scan.Scan_sim.total_toggles;
  }

let check_techniques results goldens =
  let f = Alcotest.testable (fun fmt x -> Format.fprintf fmt "%h" x)
      (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
  in
  List.iter2
    (fun (tag, (t : Scanpower.Flow.technique_result))
         (dyn, static, peak, toggles) ->
      Alcotest.check f (tag ^ " dyn/f") dyn t.Scanpower.Flow.dynamic_per_hz_uw;
      Alcotest.check f (tag ^ " static") static t.Scanpower.Flow.static_uw;
      Alcotest.check f (tag ^ " peak static") peak
        t.Scanpower.Flow.peak_static_uw;
      Alcotest.(check int)
        (tag ^ " toggles") toggles t.Scanpower.Flow.total_toggles)
    results goldens

let techniques (cmp : Scanpower.Flow.comparison) =
  [
    ("traditional", cmp.Scanpower.Flow.traditional);
    ("input_control", cmp.Scanpower.Flow.input_control);
    ("proposed", cmp.Scanpower.Flow.proposed);
    ("enhanced_scan", cmp.Scanpower.Flow.enhanced_scan);
  ]

(* The four scan structures [Flow.evaluate ~seed] measures, as
   (circuit, policy) in the order of [techniques], rebuilt from public
   calls with its seeds (+1 for the C-algorithm, +2 for IVC) and the
   copy it reorders. *)
let flow_structures ~seed (p : Scanpower.Flow.prepared) =
  let c = p.Scanpower.Flow.circuit in
  let ic = Scanpower.C_algorithm.find ~seed:(seed + 1) c in
  let mux = Scanpower.Mux_insertion.select c in
  let cp =
    Scanpower.Controlled_pattern.find
      ~direction:
        (Scanpower.Justify.Leakage_directed (Power.Observability.compute c))
      c ~muxable:mux.Scanpower.Mux_insertion.muxable
  in
  let filled =
    Scanpower.Ivc.fill ~seed:(seed + 2) c
      ~values:cp.Scanpower.Controlled_pattern.values
      ~controlled:cp.Scanpower.Controlled_pattern.controlled
  in
  let values = filled.Scanpower.Ivc.values in
  let concrete id = values.(id) = Netlist.Logic.One in
  let c' = Netlist.Circuit.copy c in
  ignore (Scanpower.Input_reorder.optimize c' ~values);
  let shift_pattern pattern forced_pseudo =
    {
      Scan.Scan_sim.pi_during_shift = Some pattern;
      forced_pseudo;
      hold_previous_capture = false;
    }
  in
  [
    (c, Scan.Scan_sim.traditional);
    (c, shift_pattern ic.Scanpower.C_algorithm.pi_pattern []);
    ( c',
      shift_pattern
        (Array.map concrete (Netlist.Circuit.inputs c))
        (List.map
           (fun id -> (id, concrete id))
           mux.Scanpower.Mux_insertion.muxable) );
    (c, Scan.Scan_sim.enhanced_scan);
  ]

let check_s344_counts (cmp : Scanpower.Flow.comparison) =
  Alcotest.(check int) "n_vectors" 35 cmp.Scanpower.Flow.n_vectors;
  Alcotest.(check int) "n_dffs" 15 cmp.Scanpower.Flow.n_dffs;
  Alcotest.(check int) "n_muxable" 14 cmp.Scanpower.Flow.n_muxable;
  Alcotest.(check int) "blocked_gates" 2 cmp.Scanpower.Flow.blocked_gates;
  Alcotest.(check int) "failed_gates" 0 cmp.Scanpower.Flow.failed_gates;
  Alcotest.(check int) "reordered_gates" 30 cmp.Scanpower.Flow.reordered_gates

(* The scan oracle on s344's four structures. The packed simulator on
   the same rebuild must reproduce [Flow.evaluate] bit for bit, which
   shows the rebuild is the flow's. *)
let check_s344_identical_to_seed () =
  T.disable ();
  T.reset ();
  let p = Scanpower.Flow.prepare (Circuits.by_name "s344") in
  let cmp = Scanpower.Flow.evaluate p in
  check_s344_counts cmp;
  let chain = p.Scanpower.Flow.chain and vectors = p.Scanpower.Flow.vectors in
  let structures = flow_structures ~seed:42 p in
  let run measure =
    List.map2
      (fun (tag, _) (c, policy) ->
        (tag, technique_of (measure c chain policy ~vectors)))
      (techniques cmp) structures
  in
  Alcotest.(check bool) "rebuilt structures are the flow's" true
    (run (Scan.Scan_sim.measure ?init_state:None) = techniques cmp);
  check_techniques
    (run (Scan_oracle.measure ?init_state:None))
    s344_oracle_goldens

let check_s344_packed_golden () =
  T.disable ();
  T.reset ();
  let cmp = Scanpower.Flow.run_benchmark (Circuits.by_name "s344") in
  check_s344_counts cmp;
  check_techniques (techniques cmp) s344_packed_goldens

(* ---------- histograms ---------- *)

let check_histogram_percentiles () =
  with_telemetry (fun () ->
      let h = T.Histogram.make "test.hist" in
      Alcotest.(check bool) "same handle for same name" true
        (h == T.Histogram.make "test.hist");
      for i = 1 to 100 do
        T.Histogram.observe h (float_of_int i /. 1000.0)
      done;
      let s = T.Histogram.snapshot h in
      Alcotest.(check int) "count" 100 s.T.Histogram.s_count;
      Alcotest.(check (float 1e-12)) "min exact" 0.001 s.T.Histogram.s_min;
      Alcotest.(check (float 1e-12)) "max exact" 0.1 s.T.Histogram.s_max;
      (* log buckets are ~19% wide, so a percentile lands within one
         bucket of the exact order statistic *)
      let near tag expected v =
        if not (v >= expected /. 1.25 && v <= expected *. 1.25) then
          Alcotest.failf "%s: %g not within 25%% of %g" tag v expected
      in
      near "p50" 0.050 s.T.Histogram.p50;
      near "p90" 0.090 s.T.Histogram.p90;
      near "p99" 0.099 s.T.Histogram.p99;
      Alcotest.(check bool) "percentiles monotone" true
        (s.T.Histogram.p50 <= s.T.Histogram.p90
        && s.T.Histogram.p90 <= s.T.Histogram.p99);
      T.Histogram.observe h Float.nan;
      T.Histogram.observe h Float.infinity;
      Alcotest.(check int) "non-finite dropped" 100 (T.Histogram.count h);
      T.Histogram.reset h;
      Alcotest.(check int) "reset" 0 (T.Histogram.count h))

let check_histogram_disabled_dropped () =
  T.disable ();
  T.reset ();
  let h = T.Histogram.make "test.hist.off" in
  T.Histogram.observe h 1.0;
  Alcotest.(check int) "dropped while disabled" 0 (T.Histogram.count h)

let check_histogram_in_snapshot () =
  with_telemetry (fun () ->
      let h = T.Histogram.make "test.hist.snap" in
      T.Histogram.observe h 0.25;
      T.Histogram.observe h 0.5;
      let snap = T.metrics_snapshot () in
      match J.member "histograms" snap with
      | Some (J.Obj hs) -> (
        match List.assoc_opt "test.hist.snap" hs with
        | None -> Alcotest.fail "histogram missing from snapshot"
        | Some hj ->
          Alcotest.(check bool) "count serialized" true
            (J.member "count" hj = Some (J.Int 2));
          (match (J.member "p50" hj, J.member "p99" hj) with
          | Some (J.Float p50), Some (J.Float p99) ->
            Alcotest.(check bool) "p50 positive" true (p50 > 0.0);
            Alcotest.(check bool) "p99 >= p50" true (p99 >= p50)
          | _ -> Alcotest.fail "percentiles missing or non-numeric"))
      | _ -> Alcotest.fail "histograms object missing from snapshot")

(* ---------- string escaping and the chrome exporter ---------- *)

let check_json_string_escaping () =
  let repr s = J.to_string (J.String s) in
  Alcotest.(check string) "quotes and backslashes"
    "\"quote\\\"back\\\\slash\"" (repr "quote\"back\\slash");
  Alcotest.(check string) "named control escapes" "\"a\\tb\\nc\\rd\""
    (repr "a\tb\nc\rd");
  Alcotest.(check string) "other control chars as \\u" "\"x\\u0001y\\u001fz\""
    (repr "x\x01y\x1fz");
  Alcotest.(check string) "utf-8 bytes pass through" "\"s\xc3\xa9quence \xe2\x86\x92\""
    (repr "s\xc3\xa9quence \xe2\x86\x92");
  (* and every one of those survives a round-trip *)
  List.iter
    (fun s ->
      match J.of_string (repr s) with
      | Ok (J.String s') -> Alcotest.(check string) "round-trip" s s'
      | Ok _ -> Alcotest.fail "reparsed as non-string"
      | Error e -> Alcotest.failf "reparse failed: %s" e)
    [
      "quote\"back\\slash"; "a\tb\nc\rd"; "x\x01y\x1fz";
      "s\xc3\xa9quence \xe2\x86\x92"; "\\u0041 literal";
    ]

let check_chrome_trace_export () =
  with_telemetry (fun () ->
      T.Trace_export.clear ();
      T.Span.with_ ~name:"parent"
        ~fields:[ ("circuit", J.String "s27 \"quoted\\name\"") ] (fun () ->
          T.Span.with_ ~name:"child" (fun () -> ()));
      (* a synthetic worker snapshot under its own pid, as the job pool
         ships them back over the result pipe *)
      let worker =
        match T.metrics_snapshot () with
        | J.Obj fields ->
          J.Obj
            (List.map
               (fun (k, v) -> if k = "pid" then (k, J.Int 4242) else (k, v))
               fields)
        | _ -> Alcotest.fail "snapshot is not an object"
      in
      T.Trace_export.register ~label:"worker s27" worker;
      let trace = T.chrome_trace () in
      T.Trace_export.clear ();
      (match J.of_string (J.to_string trace) with
      | Error e -> Alcotest.failf "chrome trace does not reparse: %s" e
      | Ok t' ->
        Alcotest.(check bool) "chrome trace round-trips" true (J.equal trace t'));
      match J.member "traceEvents" trace with
      | Some (J.List events) ->
        let pids =
          List.filter_map
            (fun e ->
              match J.member "pid" e with Some (J.Int p) -> Some p | _ -> None)
            events
        in
        Alcotest.(check bool) "own pid present" true
          (List.mem (Unix.getpid ()) pids);
        Alcotest.(check bool) "worker re-parented on its own pid" true
          (List.mem 4242 pids);
        let span_names =
          List.filter_map
            (fun e ->
              match (J.member "ph" e, J.member "name" e) with
              | Some (J.String "X"), Some (J.String n) -> Some n
              | _ -> None)
            events
        in
        Alcotest.(check bool) "parent span exported" true
          (List.mem "parent" span_names);
        Alcotest.(check bool) "child span exported" true
          (List.mem "child" span_names);
        List.iter
          (fun e ->
            match J.member "ph" e with
            | Some (J.String ("X" | "M")) -> ()
            | ph ->
              Alcotest.failf "unexpected event phase %s"
                (match ph with Some p -> J.to_string p | None -> "missing"))
          events
      | _ -> Alcotest.fail "traceEvents array missing")

(* ---------- trace well-formedness on exception paths ---------- *)

let check_trace_wellformed_on_exception () =
  let path = Filename.temp_file "scanpower_trace" ".jsonl" in
  T.reset ();
  T.enable ();
  T.set_trace_file path;
  (try
     T.Span.with_ ~name:"stage" (fun () ->
         T.Span.with_ ~name:"inner" (fun () ->
             Scanpower_errors.raise_error ~code:Scanpower_errors.Runtime
               ~stage:"test" "expected failure"))
   with Scanpower_errors.Error _ -> ());
  T.close_trace ();
  T.disable ();
  T.reset ();
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Sys.remove path;
  let count typ =
    List.length
      (List.filter
         (fun l ->
           match J.of_string l with
           | Ok obj -> J.member "type" obj = Some (J.String typ)
           | Error e -> Alcotest.failf "trace line is not JSON (%s): %s" e l)
         lines)
  in
  Alcotest.(check int) "two spans opened" 2 (count "span_start");
  Alcotest.(check int) "every span_start has its span_end" (count "span_start")
    (count "span_end")

(* ---------- span GC attribution ---------- *)

let check_span_gc_attribution () =
  with_telemetry (fun () ->
      T.Span.with_ ~name:"alloc" (fun () ->
          ignore
            (Sys.opaque_identity
               (Array.init 100_000 (fun i -> string_of_int (i * i)))));
      match T.Span.find "alloc" with
      | None -> Alcotest.fail "span missing"
      | Some s ->
        Alcotest.(check bool) "minor allocation attributed" true
          (s.T.Span.minor_words > 0.0);
        Alcotest.(check bool) "collection deltas non-negative" true
          (s.T.Span.minor_collections >= 0 && s.T.Span.major_collections >= 0);
        Alcotest.(check bool) "peak heap recorded" true
          (s.T.Span.top_heap_words > 0);
        (match J.member "gc" (T.Span.to_json s) with
        | Some (J.Obj gc) ->
          Alcotest.(check bool) "gc json carries minor_words" true
            (List.mem_assoc "minor_words" gc)
        | _ -> Alcotest.fail "gc object missing from span json"))

(* ---------- event bus ---------- *)

let check_event_bus () =
  let seen = ref [] in
  let sub = T.Events.subscribe (fun ev -> seen := ev.T.Events.name :: !seen) in
  Alcotest.(check bool) "has subscribers" true (T.Events.has_subscribers ());
  T.Events.emit "alpha" [ ("x", J.Int 1) ];
  (* a throwing subscriber must not break delivery to the others *)
  let bad = T.Events.subscribe (fun _ -> failwith "bad subscriber") in
  T.Events.emit "beta" [];
  T.Events.unsubscribe bad;
  T.Events.unsubscribe sub;
  T.Events.emit "gamma" [];
  Alcotest.(check (list string)) "delivered in order, gamma unseen"
    [ "alpha"; "beta" ] (List.rev !seen);
  Alcotest.(check bool) "all unsubscribed" false (T.Events.has_subscribers ())

let check_event_line_writer () =
  let path = Filename.temp_file "scanpower_events" ".jsonl" in
  let oc = open_out path in
  let sub = T.Events.subscribe (T.Events.line_writer oc) in
  T.Events.emit "sweep.job_finished"
    [ ("job", J.String "s27 seed=1"); ("completed", J.Int 1) ];
  T.Events.unsubscribe sub;
  close_out oc;
  let raw = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  match J.of_string (String.trim raw) with
  | Error e -> Alcotest.failf "progress line is not JSON: %s" e
  | Ok obj ->
    Alcotest.(check bool) "event name" true
      (J.member "event" obj = Some (J.String "sweep.job_finished"));
    Alcotest.(check bool) "payload field" true
      (J.member "completed" obj = Some (J.Int 1));
    Alcotest.(check bool) "timestamped" true
      (match J.member "ts" obj with Some (J.Float _) -> true | _ -> false)

(* the one NDJSON emission point shared by [sweep --progress] and the
   daemon's response stream: one compact object per line, flushed
   immediately, newline-terminated even for the last line *)
let check_write_json_line_framing () =
  let path = Filename.temp_file "scanpower_lines" ".jsonl" in
  let oc = open_out path in
  let payloads =
    [
      J.Obj [ ("a", J.Int 1) ];
      J.Obj [ ("nested", J.Obj [ ("s", J.String "x\ny") ]) ];
      J.List [ J.Bool true; J.Null ];
    ]
  in
  List.iter (T.Events.write_json_line oc) payloads;
  (* flushed: a second reader sees every full line before close *)
  let raw_before_close = In_channel.with_open_bin path In_channel.input_all in
  close_out oc;
  let raw = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check string) "flushed per line, not at close" raw
    raw_before_close;
  Alcotest.(check bool) "newline-terminated" true
    (String.length raw > 0 && raw.[String.length raw - 1] = '\n');
  let lines = String.split_on_char '\n' (String.sub raw 0 (String.length raw - 1)) in
  Alcotest.(check int) "one line per payload" (List.length payloads)
    (List.length lines);
  List.iter2
    (fun line payload ->
      match J.of_string line with
      | Ok j -> Alcotest.(check bool) "line round-trips" true (J.equal j payload)
      | Error e -> Alcotest.failf "line is not JSON: %s" e)
    lines payloads

(* ---------- sweep progress events ---------- *)

let check_sweep_progress_events () =
  T.disable ();
  T.reset ();
  let events = ref [] in
  let sub = T.Events.subscribe (fun ev -> events := ev :: !events) in
  let finally () =
    T.Events.unsubscribe sub;
    T.disable ();
    T.reset ()
  in
  Fun.protect ~finally (fun () ->
      T.enable ();
      let points =
        Scanpower.Sweep.points ~seeds:[ 1; 2 ] [ Circuits.s27 () ]
      in
      let report =
        Scanpower.Sweep.run ~jobs:1 ~capture_telemetry:false points
      in
      let named n = List.filter (fun ev -> ev.T.Events.name = n) !events in
      let finished = named "sweep.job_finished" @ named "sweep.cache_hit" in
      Alcotest.(check int) "one terminal event per job"
        (List.length report.Scanpower.Sweep.results)
        (List.length finished);
      Alcotest.(check int) "one start per job"
        (List.length points)
        (List.length (named "sweep.job_started"));
      List.iter
        (fun ev ->
          Alcotest.(check bool) "total field" true
            (List.assoc_opt "total" ev.T.Events.fields = Some (J.Int 2));
          match List.assoc_opt "completed" ev.T.Events.fields with
          | Some (J.Int c) ->
            Alcotest.(check bool) "completed within range" true (c >= 0 && c <= 2)
          | _ -> Alcotest.fail "completed field missing")
        !events)

(* ---------- profile table ---------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_profile_table_s344 () =
  with_telemetry (fun () ->
      let _ = Scanpower.Flow.run_benchmark (Circuits.by_name "s344") in
      match T.Span.find "flow.run_benchmark" with
      | None -> Alcotest.fail "root span missing"
      | Some root ->
        let render ?top () =
          let buf = Buffer.create 4096 in
          let fmt = Format.formatter_of_buffer buf in
          T.Span.pp_profile ?top fmt root;
          Format.pp_print_flush fmt ();
          Buffer.contents buf
        in
        let out = render () in
        (* the header line pins the column order *)
        let header = List.hd (String.split_on_char '\n' out) in
        Alcotest.(check string) "deterministic column order"
          (Printf.sprintf "%-32s %12s %6s %12s %12s %8s %8s" "stage" "ms" "%"
             "minor-mw" "major-mw" "gc-min" "gc-maj")
          header;
        List.iter
          (fun stage ->
            Alcotest.(check bool) ("stage " ^ stage ^ " present") true
              (contains ~needle:stage out))
          [ "flow.run_benchmark"; "flow.prepare"; "atpg"; "flow.evaluate";
            "scan_sim.traditional" ];
        let lines s =
          List.filter
            (fun l -> String.trim l <> "")
            (String.split_on_char '\n' s)
        in
        Alcotest.(check bool) "one row per distinct stage" true
          (List.length (lines out) > List.length expected_phases / 2);
        Alcotest.(check int) "--top 1 keeps header plus one row" 2
          (List.length (lines (render ~top:1 ()))))

let suite =
  [
    Alcotest.test_case "disabled is a no-op" `Quick check_disabled_is_noop;
    Alcotest.test_case "span nesting and timing" `Quick
      check_span_nesting_and_timing;
    Alcotest.test_case "span survives exception" `Quick
      check_span_survives_exception;
    Alcotest.test_case "counter registry reset" `Quick
      check_counter_registry_reset;
    Alcotest.test_case "gauge" `Quick check_gauge;
    Alcotest.test_case "json round-trip" `Quick check_json_roundtrip_value;
    Alcotest.test_case "json rejects garbage" `Quick check_json_rejects_garbage;
    Alcotest.test_case "snapshot round-trip" `Quick check_snapshot_roundtrip;
    Alcotest.test_case "flow phase tree" `Quick check_flow_phase_tree;
    Alcotest.test_case "flow bit-identical on vs off" `Quick
      check_flow_bit_identical_on_off;
    Alcotest.test_case "s344 identical to seed" `Slow
      check_s344_identical_to_seed;
    Alcotest.test_case "s344 packed engine golden" `Slow
      check_s344_packed_golden;
    Alcotest.test_case "histogram percentiles" `Quick
      check_histogram_percentiles;
    Alcotest.test_case "histogram disabled dropped" `Quick
      check_histogram_disabled_dropped;
    Alcotest.test_case "histogram in snapshot" `Quick
      check_histogram_in_snapshot;
    Alcotest.test_case "json string escaping" `Quick check_json_string_escaping;
    Alcotest.test_case "chrome trace export" `Quick check_chrome_trace_export;
    Alcotest.test_case "trace well-formed on exception" `Quick
      check_trace_wellformed_on_exception;
    Alcotest.test_case "span gc attribution" `Quick check_span_gc_attribution;
    Alcotest.test_case "event bus" `Quick check_event_bus;
    Alcotest.test_case "event line writer" `Quick check_event_line_writer;
    Alcotest.test_case "write_json_line framing" `Quick
      check_write_json_line_framing;
    Alcotest.test_case "sweep progress events" `Quick
      check_sweep_progress_events;
    Alcotest.test_case "profile table on s344" `Slow check_profile_table_s344;
  ]
