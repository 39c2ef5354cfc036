open Netlist

type config = { seed : int; backtrack_limit : int }

let default_config = { seed = 1; backtrack_limit = 25 }

(* The generation policy (see the interface). [batch_vectors] and
   [chunk_cubes] are test-set policy, not the fault simulator's word
   width: a 64-vector batch runs as 63 + 1 lanes, and neither
   [Fault_simulation.split]'s detected set nor [effective_subset]'s
   kept set depends on how vectors fall into words. Changing either
   constant changes the test set. *)
let random_batches = 32
let stale_batches = 5
let batch_vectors = 64
let chunk_cubes = 64

let m_vectors = Telemetry.Counter.make "atpg.pattern_gen.vectors"
let m_detected = Telemetry.Counter.make "atpg.faults.detected"
let m_untestable = Telemetry.Counter.make "atpg.faults.untestable"
let m_aborted = Telemetry.Counter.make "atpg.faults.aborted"

(* PODEM keeps one process-wide backtrack counter; sampling it around
   each [generate] call turns the aggregate into a per-fault
   distribution (a fat p99 here is the signature of a redundant-logic
   cluster eating the backtrack budget) *)
let m_backtracks = Telemetry.Counter.make "atpg.podem.backtracks"
let h_backtracks = Telemetry.Histogram.make "atpg.podem.backtracks_per_fault"

type outcome = {
  vectors : bool array list;
  total_faults : int;
  detected : int;
  untestable : int;
  aborted : int;
  skipped : int;
  coverage : float;
}

let random_vectors ~seed ~count c =
  let rng = Util.Rng.create seed in
  let n = Array.length (Circuit.sources c) in
  List.init count (fun _ -> Util.Rng.bool_array rng n)

let generate ?(config = default_config) c =
  let faults = Fault.collapsed_faults c in
  let total_faults = List.length faults in
  let rng = Util.Rng.create config.seed in
  let n_sources = Array.length (Circuit.sources c) in
  (* one fault-sim machine for all three phases and one PODEM engine
     for every deterministic fault: compiled arrays, cones, tables and
     scratch are built once per circuit *)
  let machine = Fault_simulation.make c in
  let podem = Podem.make ~guide:(Scoap.compute c) c in
  (* reverse accumulation: appending each batch with [@] walks the
     whole prefix again (quadratic over the run); prepend reversed and
     un-reverse once at the end, preserving the exact order *)
  let kept_rev = ref [] in
  let remaining = ref faults in
  (* Phase 1: random vectors with fault dropping; a batch only survives
     if it detects something new. *)
  let stale = ref 0 in
  let batch_no = ref 0 in
  Telemetry.Span.with_ ~name:"atpg.random_phase" (fun () ->
      while
        !remaining <> []
        && !batch_no < random_batches
        && !stale < stale_batches
      do
        incr batch_no;
        let batch =
          List.init batch_vectors (fun _ -> Util.Rng.bool_array rng n_sources)
        in
        let detected, undet =
          Fault_simulation.split ~machine c ~faults:!remaining ~vectors:batch
        in
        if detected = [] then incr stale
        else begin
          stale := 0;
          remaining := undet;
          (* keep only the vectors of the batch that matter *)
          let useful =
            Fault_simulation.effective_subset ~machine c ~faults:detected
              ~vectors:batch
          in
          kept_rev := List.rev_append useful !kept_rev
        end
      done);
  (* Phase 2: PODEM per remaining fault, processed in chunks so that
     each chunk's vectors drop later faults before their turn. *)
  let untestable = ref 0 in
  (* the faults PODEM aborts or whose filled cube escapes: no later
     vector is simulated against them here, and the final test set may
     still detect them *)
  let unresolved = ref [] in
  let rec deterministic () =
    match !remaining with
    | [] -> ()
    | _ ->
      (* build one chunk of up to [chunk_cubes] cubes; collect always
         consumes the faults it visits, so every iteration makes
         progress *)
      let cubes = ref [] and processed = ref [] in
      let rec collect n = function
        | [] -> []
        | rest when n = 0 -> rest
        | f :: rest ->
          let bt0 =
            if Telemetry.enabled () then Telemetry.Counter.get m_backtracks
            else 0
          in
          let outcome =
            Podem.generate ~backtrack_limit:config.backtrack_limit podem f
          in
          if Telemetry.enabled () then
            Telemetry.Histogram.observe h_backtracks
              (float_of_int (Telemetry.Counter.get m_backtracks - bt0));
          (match outcome with
          | Podem.Test cube ->
            cubes := cube :: !cubes;
            processed := f :: !processed;
            collect (n - 1) rest
          | Podem.Untestable ->
            incr untestable;
            collect n rest
          | Podem.Aborted ->
            unresolved := f :: !unresolved;
            collect n rest)
      in
      let rest = collect chunk_cubes !remaining in
      let cubes = Compaction.merge_cubes !cubes in
      let vectors = List.map (Compaction.fill_random rng) cubes in
      (* the generated vectors also drop faults queued behind them *)
      let _, undet =
        Fault_simulation.split ~machine c ~faults:(rest @ !processed) ~vectors
      in
      (* faults whose cube was generated but that escaped detection
         after filling join the aborted ones rather than being retried.
         Collapsed faults are structurally distinct values, so a
         hashtable keyed on the fault itself matches [List.memq]
         membership without the quadratic rescans. *)
      let processed_tbl = Hashtbl.create 97 in
      List.iter (fun f -> Hashtbl.replace processed_tbl f ()) !processed;
      remaining :=
        List.filter
          (fun f ->
            if Hashtbl.mem processed_tbl f then begin
              unresolved := f :: !unresolved;
              false
            end
            else true)
          undet;
      kept_rev := List.rev_append vectors !kept_rev;
      deterministic ()
  in
  Telemetry.Span.with_ ~name:"atpg.podem_phase" deterministic;
  (* Phase 3: reverse-order static compaction over the whole set, then
     one simulation of the unresolved faults against the final vectors:
     the ones they detect are detected, the rest aborted. The vectors do
     not change. *)
  let kept = List.rev !kept_rev in
  let vectors, aborted =
    Telemetry.Span.with_ ~name:"atpg.compact_phase" (fun () ->
        let vectors =
          Fault_simulation.effective_subset ~machine c ~faults ~vectors:kept
        in
        let _, missed =
          Fault_simulation.split ~machine c ~faults:!unresolved ~vectors
        in
        (vectors, List.length missed))
  in
  let detected_total = total_faults - !untestable - aborted in
  let testable = total_faults - !untestable in
  Telemetry.Counter.add m_vectors (List.length vectors);
  Telemetry.Counter.add m_detected detected_total;
  Telemetry.Counter.add m_untestable !untestable;
  (* aborted faults are the explicit "ATPG gave up" classification:
     the flow proceeds, but reports and chaos tests key off this *)
  Telemetry.Counter.add m_aborted aborted;
  Telemetry.Log.debug "atpg.generate done"
    ~fields:
      [
        ("circuit", Telemetry.Json.String (Circuit.name c));
        ("vectors", Telemetry.Json.Int (List.length vectors));
        ("faults", Telemetry.Json.Int total_faults);
        ("untestable", Telemetry.Json.Int !untestable);
        ("aborted", Telemetry.Json.Int aborted);
      ];
  {
    vectors;
    total_faults;
    detected = detected_total;
    untestable = !untestable;
    aborted;
    skipped = 0;
    coverage =
      (if testable = 0 then 1.0
       else float_of_int detected_total /. float_of_int testable);
  }

let pp_outcome fmt o =
  Format.fprintf fmt
    "vectors=%d faults=%d detected=%d untestable=%d aborted=%d coverage=%.2f%%"
    (List.length o.vectors) o.total_faults o.detected o.untestable o.aborted
    (100.0 *. o.coverage)
