(* Fault simulation: the critical-path-tracing simulator (FFR
   sensitization + event-driven stem propagation) must reproduce the
   full-cone oracle ({!Oracle}) exactly, fault by fault; the structural
   preprocessing behind it (FFR stems, observability reachability) is
   checked against brute-force definitions; and effective_subset
   against the naive serial reverse-compaction walk it replaces. *)

open Netlist
module Fs = Atpg.Fault_simulation

let s27m = lazy (Techmap.Mapper.map (Circuits.s27 ()))
let s344 = lazy (Circuits.by_name "s344")
let s1196 = lazy (Circuits.by_name "s1196")

let fault_t c =
  Alcotest.testable
    (fun fmt f -> Format.pp_print_string fmt (Atpg.Fault.to_string c f))
    Atpg.Fault.equal

let random_vectors rng c n =
  let len = Array.length (Circuit.sources c) in
  List.init n (fun _ -> Array.init len (fun _ -> Util.Rng.bool rng))

(* ---------- structural preprocessing ---------- *)

(* Propagation successors: fanout edges minus edges into DFFs (a fault
   effect is observed at the D pin, never shifted onward here). *)
let prop_succs c id =
  (Circuit.node c id).Circuit.fanouts |> Array.to_list
  |> List.filter (fun s ->
         not (Gate.equal_kind (Circuit.node c s).Circuit.kind Gate.Dff))

let observable_ref c id =
  let nd = Circuit.node c id in
  Gate.equal_kind nd.Circuit.kind Gate.Output
  || Array.exists
       (fun d -> (Circuit.node c d).Circuit.fanins.(0) = id)
       (Circuit.dffs c)

(* Can [id] reach an observable? *)
let can_reach_obs c id =
  let n = Circuit.node_count c in
  let seen = Array.make n false in
  let rec go id =
    (not seen.(id))
    && begin
         seen.(id) <- true;
         observable_ref c id || List.exists go (prop_succs c id)
       end
  in
  go id

let check_preprocessing_on c =
  let comp = Compiled.of_circuit c in
  let n = Circuit.node_count c in
  let observable = Compiled.observable comp in
  let reaches = Compiled.reaches_observable comp in
  let ffr_stem = Compiled.ffr_stem comp in
  for id = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "observable %d" id)
      (observable_ref c id) observable.(id);
    Alcotest.(check bool)
      (Printf.sprintf "reaches %d" id)
      (can_reach_obs c id)
      reaches.(id)
  done;
  (* a stem maps to itself iff it has fanout-edge-count <> 1 or its
     unique consumer is a DFF; every other node's chain of unique
     fanout edges hits exactly [ffr_stem.(id)] as the first stem *)
  for id = 0 to n - 1 do
    let rec walk cur =
      let fo = (Circuit.node c cur).Circuit.fanouts in
      if
        Array.length fo <> 1
        || Gate.equal_kind (Circuit.node c fo.(0)).Circuit.kind Gate.Dff
      then cur
      else walk fo.(0)
    in
    Alcotest.(check int) (Printf.sprintf "ffr_stem %d" id) (walk id) ffr_stem.(id)
  done;
  Array.iter
    (fun s -> Alcotest.(check int) "stem fixpoint" s ffr_stem.(s))
    ffr_stem

let check_preprocessing () =
  check_preprocessing_on (Lazy.force s27m);
  List.iter
    (fun seed ->
      check_preprocessing_on
        (Circuits.generate
           {
             Circuits.name = Printf.sprintf "pre%d" seed;
             n_pi = 4;
             n_po = 2;
             n_ff = 3;
             n_gates = 40;
             seed;
           }))
    [ 1; 2; 3 ]

(* ---------- oracle equivalence ---------- *)

(* One vector at a time, last to first, keeping a vector iff it detects
   a fault no later-kept vector detects: the textbook (quadratic)
   reverse compaction that effective_subset vectorises, on the oracle's
   full fault x vector detection matrix. *)
let naive_reverse_compaction c ~faults ~vectors =
  let rows = Oracle.detection_matrix c ~faults ~vectors in
  let covered = Array.make (List.length faults) false in
  let keep = ref [] in
  List.iteri
    (fun k v ->
      let row = rows.(Array.length rows - 1 - k) in
      let newly = ref false in
      Array.iteri
        (fun i hit ->
          if hit && not covered.(i) then begin
            covered.(i) <- true;
            newly := true
          end)
        row;
      if !newly then keep := v :: !keep)
    (List.rev vectors);
  !keep

(* CPT ≡ the oracle on [n_vectors] vectors drawn from [seed] (the same
   vectors as [Atpg.Pattern_gen.random_vectors ~seed ~count:n_vectors]).
   With [reuse] (the default) the same machine then runs again on a
   second vector set, and effective_subset and coverage are compared
   too. *)
let check_split_agrees ?(reuse = true) tag c ~seed ~n_vectors =
  let faults = Atpg.Fault.collapsed_faults c in
  let rng = Util.Rng.create seed in
  let vectors = random_vectors rng c n_vectors in
  let m = Fs.make c in
  let det_oracle, undet_oracle = Oracle.split c ~faults ~vectors in
  let det_cpt, undet_cpt = Fs.split ~machine:m c ~faults ~vectors in
  Alcotest.(check (list (fault_t c)))
    (tag ^ " detected identical") det_oracle det_cpt;
  Alcotest.(check (list (fault_t c)))
    (tag ^ " undetected identical") undet_oracle undet_cpt;
  if reuse then begin
    (* the same machine again on a different vector set: persistent
       state (memos, stamps) must not leak across runs *)
    let vectors2 = random_vectors rng c (max 1 (n_vectors / 2)) in
    let d1 = Oracle.detected_by c ~faults ~vectors:vectors2 in
    let d2, _ = Fs.split ~machine:m c ~faults ~vectors:vectors2 in
    let d3, _ = Fs.split c ~faults ~vectors:vectors2 in
    Alcotest.(check (list (fault_t c))) (tag ^ " reuse") d1 d2;
    Alcotest.(check (list (fault_t c))) (tag ^ " reuse vs fresh") d1 d3;
    Alcotest.(check (list (array bool)))
      (tag ^ " effective_subset identical")
      (naive_reverse_compaction c ~faults ~vectors)
      (Fs.effective_subset ~machine:m c ~faults ~vectors);
    Alcotest.(check bool)
      (tag ^ " coverage identical") true
      (Fs.coverage ~machine:m c ~faults ~vectors
      = float_of_int (List.length det_oracle)
        /. float_of_int (List.length faults))
  end

let check_golden_s27 () =
  check_split_agrees "s27/seed1" (Lazy.force s27m) ~seed:1 ~n_vectors:80;
  check_split_agrees "s27/seed2" (Lazy.force s27m) ~seed:2 ~n_vectors:5

let check_golden_s344 () =
  check_split_agrees "s344/seed3" (Lazy.force s344) ~seed:3 ~n_vectors:70;
  check_split_agrees "s344/seed4" (Lazy.force s344) ~seed:4 ~n_vectors:20

let check_golden_s1196 () =
  check_split_agrees "s1196/seed5" (Lazy.force s1196) ~seed:5 ~n_vectors:40

let prop_oracle_agrees =
  QCheck.Test.make ~name:"cpt engine equals cone engine" ~count:15
    (QCheck.make
       QCheck.Gen.(triple (int_range 0 10000) (int_range 1 70) (int_range 10 80)))
    (fun (seed, n_vectors, n_gates) ->
      let c =
        Circuits.generate
          {
            Circuits.name = Printf.sprintf "fprop%d" seed;
            n_pi = 3 + (seed mod 4);
            n_po = 2;
            n_ff = 2 + (seed mod 5);
            n_gates;
            seed;
          }
      in
      check_split_agrees (Printf.sprintf "fprop%d" seed) c ~seed ~n_vectors;
      true)

(* ---------- effective_subset vs the naive serial walk ---------- *)

let check_effective_subset_is_naive () =
  List.iter
    (fun (c, seed, n_vectors) ->
      let faults = Atpg.Fault.collapsed_faults c in
      let rng = Util.Rng.create seed in
      let vectors = random_vectors rng c n_vectors in
      Alcotest.(check (list (array bool)))
        "naive reverse walk"
        (naive_reverse_compaction c ~faults ~vectors)
        (Fs.effective_subset c ~faults ~vectors))
    [ (Lazy.force s27m, 11, 90); (Lazy.force s344, 12, 30);
      (Lazy.force s344, 13, 130) ]

(* ---------- word boundaries ---------- *)

(* A split over n vectors must detect exactly the union of what each
   vector detects alone (a one-vector batch runs under mask 1), for n
   around one and two full words: the last lane of a full word, the
   first lane of the next word and a short tail are all covered. Random
   vectors mostly detect the same faults, so each n is also run on one
   vector repeated with a different one last: only the last lane can
   detect what the repeated vector misses. *)
let check_split_is_per_vector_union () =
  List.iter
    (fun (c, seed) ->
      let faults = Atpg.Fault.collapsed_faults c in
      let m = Fs.make c in
      let rng = Util.Rng.create seed in
      let union vectors =
        let hit = Hashtbl.create 97 in
        List.iter
          (fun v ->
            let det, _ = Fs.split ~machine:m c ~faults ~vectors:[ v ] in
            List.iter (fun f -> Hashtbl.replace hit f ()) det)
          vectors;
        List.filter (Hashtbl.mem hit) faults
      in
      let check tag vectors =
        let det, _ = Fs.split ~machine:m c ~faults ~vectors in
        Alcotest.(check (list (fault_t c))) tag (union vectors) det
      in
      List.iter
        (fun n ->
          let name = Printf.sprintf "%s n=%d" (Circuit.name c) n in
          check (name ^ " random") (random_vectors rng c n);
          match random_vectors rng c 2 with
          | [ a; b ] ->
            Alcotest.(check bool)
              (name ^ " last vector detects more") true
              (List.length (union [ a; b ]) > List.length (union [ a ]));
            check (name ^ " odd last")
              (List.init n (fun i -> if i = n - 1 then b else a))
          | _ -> assert false)
        [ 62; 63; 64; 126; 127 ])
    [ (Lazy.force s27m, 21); (Lazy.force s344, 22) ]

(* ---------- machine API ---------- *)

let check_machine_mismatch_raises () =
  let c = Lazy.force s27m in
  let other = Circuit.copy c in
  let m = Fs.make c in
  let faults = Atpg.Fault.collapsed_faults c in
  let vectors = random_vectors (Util.Rng.create 1) c 3 in
  Alcotest.check_raises "structurally equal is not enough"
    (Invalid_argument "Fault_simulation: machine compiled from a different circuit")
    (fun () -> ignore (Fs.split ~machine:m other ~faults ~vectors))

(* ---------- telemetry counters ---------- *)

let check_counters () =
  let c = Lazy.force s344 in
  let faults = Atpg.Fault.collapsed_faults c in
  let vectors = random_vectors (Util.Rng.create 9) c 64 in
  let was_enabled = Telemetry.enabled () in
  Telemetry.reset ();
  Telemetry.enable ();
  let get name = Option.value ~default:0 (Telemetry.Counter.find name) in
  ignore (Fs.split ~machine:(Fs.make c) c ~faults ~vectors);
  let traces = get "atpg.fault_sim.ffr_traces" in
  let events = get "atpg.fault_sim.stem_events" in
  let exits = get "atpg.fault_sim.early_exits" in
  (* three batches (63 + 63 + 2 patterns): the later batches must
     actually drop the faults the earlier ones detected *)
  let vectors_2b = random_vectors (Util.Rng.create 10) c 128 in
  ignore (Fs.split ~machine:(Fs.make c) c ~faults ~vectors:vectors_2b);
  let dropped = get "atpg.fault_sim.dropped_faults" in
  Telemetry.reset ();
  if not was_enabled then Telemetry.disable ();
  Alcotest.(check bool) "ffr traces counted" true (traces > 0);
  Alcotest.(check bool) "stem events counted" true (events > 0);
  Alcotest.(check bool) "early exits counted" true (exits > 0);
  Alcotest.(check bool) "dropped faults counted" true (dropped > 0)

let suite =
  [
    Alcotest.test_case "structural preprocessing vs brute force" `Quick
      check_preprocessing;
    Alcotest.test_case "golden equivalence s27" `Quick check_golden_s27;
    Alcotest.test_case "golden equivalence s344" `Quick check_golden_s344;
    Alcotest.test_case "golden equivalence s1196" `Quick check_golden_s1196;
    Alcotest.test_case "effective_subset equals naive walk" `Quick
      check_effective_subset_is_naive;
    Alcotest.test_case "split is per-vector union at word edges" `Quick
      check_split_is_per_vector_union;
    Alcotest.test_case "machine circuit mismatch" `Quick
      check_machine_mismatch_raises;
    Alcotest.test_case "engine counters" `Quick check_counters;
    QCheck_alcotest.to_alcotest prop_oracle_agrees;
  ]
