(* FindControlledInputPattern: transition suppression, its measurable
   effect on scan power, and directedness options. *)

open Netlist

let mapped name = Techmap.Mapper.map (Circuits.by_name name)

let find_with_direction c dir =
  let mux = Scanpower.Mux_insertion.select c in
  Scanpower.Controlled_pattern.find ~direction:dir c
    ~muxable:mux.Scanpower.Mux_insertion.muxable

let leak_directed c =
  find_with_direction c
    (Scanpower.Justify.Leakage_directed (Power.Observability.compute c))

let check_terminates_and_blocks () =
  let c = mapped "s344" in
  let r = leak_directed c in
  Alcotest.(check bool) "blocked some gates" true
    (r.Scanpower.Controlled_pattern.blocked_gates > 0);
  Alcotest.(check bool) "bookkeeping consistent" true
    (r.Scanpower.Controlled_pattern.blocked_gates >= 0
    && r.Scanpower.Controlled_pattern.failed_gates >= 0)

let check_controlled_set () =
  let c = mapped "s344" in
  let mux = Scanpower.Mux_insertion.select c in
  let r = leak_directed c in
  let expected =
    Array.to_list (Circuit.inputs c) @ mux.Scanpower.Mux_insertion.muxable
  in
  Alcotest.(check (list int)) "pis + muxable"
    (List.sort compare expected)
    (List.sort compare r.Scanpower.Controlled_pattern.controlled)

let check_assignment_covers_controlled () =
  let c = mapped "s344" in
  let r = leak_directed c in
  Alcotest.(check int) "one entry per controlled input"
    (List.length r.Scanpower.Controlled_pattern.controlled)
    (List.length r.Scanpower.Controlled_pattern.assignment);
  (* non-controlled pseudo-inputs must remain X *)
  let mux = Scanpower.Mux_insertion.select c in
  Array.iter
    (fun dff ->
      if not (List.mem dff mux.Scanpower.Mux_insertion.muxable) then
        Alcotest.(check bool) "non-muxed stays X" true
          (Logic.equal r.Scanpower.Controlled_pattern.values.(dff) Logic.X))
    (Circuit.dffs c)

let check_values_follow_from_assignment () =
  (* the returned value array must be exactly the propagation of the
     controlled-input assignment *)
  let c = mapped "s382" in
  let r = leak_directed c in
  let fresh = Ternary_sim.make_values c Logic.X in
  List.iter
    (fun (id, v) -> fresh.(id) <- v)
    r.Scanpower.Controlled_pattern.assignment;
  Ternary_sim.propagate c fresh;
  Array.iteri
    (fun id v ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d" id)
        true
        (Logic.equal v r.Scanpower.Controlled_pattern.values.(id)))
    fresh

let residual_tn direction c =
  (find_with_direction c direction).Scanpower.Controlled_pattern
    .residual_transition_nodes

let check_blocking_reduces_transitions_strictly () =
  (* a hand-made circuit where the blockable gate guards a long chain:
     blocking it must shrink the transition set to the seed alone *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.add_input b "a" in
  let ff = Circuit.Builder.declare_dff b "ff" in
  let g = Circuit.Builder.add_gate b Gate.Nand "g" [ ff; a ] in
  let n1 = Circuit.Builder.add_gate b Gate.Not "n1" [ g ] in
  let n2 = Circuit.Builder.add_gate b Gate.Not "n2" [ n1 ] in
  Circuit.Builder.connect_dff b ff ~d:n2;
  let _ = Circuit.Builder.add_output b "po" n2 in
  let c = Circuit.Builder.build b in
  let r =
    Scanpower.Controlled_pattern.find ~direction:Scanpower.Justify.Structural c
      ~muxable:[]
  in
  Alcotest.(check int) "one gate blocked" 1 r.Scanpower.Controlled_pattern.blocked_gates;
  Alcotest.(check int) "only the seed still toggles" 1
    r.Scanpower.Controlled_pattern.residual_transition_nodes

let check_blocking_reduces_transitions () =
  (* compared against doing nothing (all controlled inputs X), the
     found pattern never increases the transition-node count *)
  let c = mapped "s382" in
  let mux = Scanpower.Mux_insertion.select c in
  let muxable = mux.Scanpower.Mux_insertion.muxable in
  let muxed = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace muxed id ()) muxable;
  let seeds =
    Array.to_list (Circuit.dffs c)
    |> List.filter (fun id -> not (Hashtbl.mem muxed id))
  in
  let values = Ternary_sim.make_values c Logic.X in
  Ternary_sim.propagate c values;
  let unblocked =
    Scanpower.Tns.compute c ~values ~seeds
      ~failed:(Array.make (Circuit.node_count c) false)
  in
  let baseline = Scanpower.Tns.transition_count unblocked in
  let r = leak_directed c in
  Alcotest.(check bool)
    (Printf.sprintf "residual %d <= unblocked %d"
       r.Scanpower.Controlled_pattern.residual_transition_nodes baseline)
    true
    (r.Scanpower.Controlled_pattern.residual_transition_nodes <= baseline)

let check_structural_direction_also_works () =
  let c = mapped "s344" in
  let r = find_with_direction c Scanpower.Justify.Structural in
  Alcotest.(check bool) "blocks gates" true
    (r.Scanpower.Controlled_pattern.blocked_gates > 0)

let check_no_muxable_still_works () =
  (* the C-algorithm configuration: primary inputs only *)
  let c = mapped "s344" in
  let r =
    Scanpower.Controlled_pattern.find ~direction:Scanpower.Justify.Structural c
      ~muxable:[]
  in
  Alcotest.(check int) "controlled = PIs"
    (Array.length (Circuit.inputs c))
    (List.length r.Scanpower.Controlled_pattern.controlled)

let check_deterministic () =
  let c = mapped "s344" in
  let r1 = leak_directed c and r2 = leak_directed c in
  Alcotest.(check bool) "same assignment" true
    (r1.Scanpower.Controlled_pattern.assignment
    = r2.Scanpower.Controlled_pattern.assignment)

let suite =
  [
    Alcotest.test_case "terminates and blocks" `Quick check_terminates_and_blocks;
    Alcotest.test_case "controlled set" `Quick check_controlled_set;
    Alcotest.test_case "assignment covers controlled" `Quick
      check_assignment_covers_controlled;
    Alcotest.test_case "values follow from assignment" `Quick
      check_values_follow_from_assignment;
    Alcotest.test_case "blocking reduces transitions" `Quick
      check_blocking_reduces_transitions;
    Alcotest.test_case "blocking reduces transitions strictly" `Quick
      check_blocking_reduces_transitions_strictly;
    Alcotest.test_case "structural direction works" `Quick
      check_structural_direction_also_works;
    Alcotest.test_case "PI-only configuration" `Quick check_no_muxable_still_works;
    Alcotest.test_case "deterministic" `Quick check_deterministic;
  ]
