(* Delay-annotated glitch simulation and the min-heap under it. *)

open Netlist

(* ---------- heap ---------- *)

let check_heap_orders () =
  let h = Util.Heap.create compare in
  List.iter (Util.Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check int) "length" 7 (Util.Heap.length h);
  let drained = List.init 7 (fun _ -> Util.Heap.pop h) in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] drained;
  Alcotest.(check bool) "empty" true (Util.Heap.is_empty h)

let check_heap_errors () =
  let h : int Util.Heap.t = Util.Heap.create compare in
  Alcotest.check_raises "pop empty" Not_found (fun () -> ignore (Util.Heap.pop h));
  Alcotest.check_raises "peek empty" Not_found (fun () -> ignore (Util.Heap.peek h))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40) int)
    (fun xs ->
      let h = Util.Heap.create compare in
      List.iter (Util.Heap.push h) xs;
      let drained = List.init (List.length xs) (fun _ -> Util.Heap.pop h) in
      drained = List.sort compare xs)

(* ---------- glitch sim ---------- *)

let mapped name = Techmap.Mapper.map (Circuits.by_name name)

(* Classic hazard circuit: f = NAND(a, NOT a) is constantly 1, but a
   transition on [a] races through the two paths of unequal delay and
   produces a glitch under transport-delay semantics. *)
let hazard_circuit () =
  let b = Circuit.Builder.create ~name:"hazard" () in
  let a = Circuit.Builder.add_input b "a" in
  let na = Circuit.Builder.add_gate b Gate.Not "na" [ a ] in
  let na2 = Circuit.Builder.add_gate b Gate.Not "na2" [ na ] in
  let na3 = Circuit.Builder.add_gate b Gate.Not "na3" [ na2 ] in
  let g = Circuit.Builder.add_gate b Gate.Nand "g" [ a; na3 ] in
  let _ = Circuit.Builder.add_output b "po" g in
  Circuit.Builder.build b

let check_static_hazard_detected () =
  let c = hazard_circuit () in
  let timing = Sta.analyze c in
  let sim = Sta.Glitch_sim.create timing in
  Sta.Glitch_sim.init sim (fun _ -> false);
  let g = Circuit.find c "g" in
  Alcotest.(check bool) "g settles at 1" true (Sta.Glitch_sim.values sim).(g);
  let a = Circuit.find c "a" in
  let caused = Sta.Glitch_sim.apply sim [ (a, true) ] in
  (* zero-delay: g stays 1 (NAND(a, not a) = 1 always); transport:
     g pulses low and back -> two transitions on g *)
  Alcotest.(check int) "g glitched" 2 (Sta.Glitch_sim.transitions sim).(g);
  Alcotest.(check bool) "still settles at 1" true (Sta.Glitch_sim.values sim).(g);
  Alcotest.(check bool) "counted" true (caused >= 2)

let check_final_values_match_zero_delay () =
  let c = mapped "s344" in
  let timing = Sta.analyze c in
  let gsim = Sta.Glitch_sim.create timing in
  let esim = Event_sim.create c in
  let rng = Util.Rng.create 13 in
  let current = Array.make (Circuit.node_count c) false in
  Sta.Glitch_sim.init gsim (fun _ -> false);
  Event_sim.init esim (fun _ -> false);
  for _ = 1 to 25 do
    let changes = ref [] in
    Array.iter
      (fun id ->
        if Util.Rng.bool rng then begin
          current.(id) <- not current.(id);
          changes := (id, current.(id)) :: !changes
        end)
      (Circuit.sources c);
    ignore (Sta.Glitch_sim.apply gsim !changes);
    ignore (Event_sim.set_sources esim !changes);
    Alcotest.(check bool) "same settled values" true
      (Sta.Glitch_sim.values gsim = Event_sim.values esim)
  done

let check_glitch_factor_at_least_one () =
  let c = mapped "s344" in
  let timing = Sta.analyze c in
  let gsim = Sta.Glitch_sim.create timing in
  let esim = Event_sim.create c in
  let rng = Util.Rng.create 17 in
  let current = Array.make (Circuit.node_count c) false in
  Sta.Glitch_sim.init gsim (fun _ -> false);
  Event_sim.init esim (fun _ -> false);
  for _ = 1 to 25 do
    let changes = ref [] in
    Array.iter
      (fun id ->
        if Util.Rng.bool rng then begin
          current.(id) <- not current.(id);
          changes := (id, current.(id)) :: !changes
        end)
      (Circuit.sources c);
    ignore (Sta.Glitch_sim.apply gsim !changes);
    ignore (Event_sim.set_sources esim !changes)
  done;
  let glitchy = Sta.Glitch_sim.total_transitions gsim in
  let settled = Event_sim.total_toggles esim in
  Alcotest.(check bool)
    (Printf.sprintf "glitchy %d >= settled %d" glitchy settled)
    true (glitchy >= settled)

let check_rejects_gate_change () =
  let c = mapped "s27" in
  let sim = Sta.Glitch_sim.create (Sta.analyze c) in
  Sta.Glitch_sim.init sim (fun _ -> false);
  let gate =
    Array.to_list (Circuit.nodes c)
    |> List.find (fun nd -> Gate.is_logic nd.Circuit.kind)
  in
  Alcotest.check_raises "gate"
    (Invalid_argument "Glitch_sim.apply: not a source node") (fun () ->
      ignore (Sta.Glitch_sim.apply sim [ (gate.Circuit.id, true) ]))

let suite =
  [
    Alcotest.test_case "heap orders" `Quick check_heap_orders;
    Alcotest.test_case "heap errors" `Quick check_heap_errors;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    Alcotest.test_case "static hazard detected" `Quick check_static_hazard_detected;
    Alcotest.test_case "final values match zero-delay" `Quick
      check_final_values_match_zero_delay;
    Alcotest.test_case "glitch factor >= 1" `Quick check_glitch_factor_at_least_one;
    Alcotest.test_case "rejects gate changes" `Quick check_rejects_gate_change;
  ]
