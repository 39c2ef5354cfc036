(* Transition node/gate set bookkeeping (Section 4 update rules). *)

open Netlist

let no_failed c = Array.make (Circuit.node_count c) false

(* ff -> NAND(ff, a) -> NOT -> po : one controllable side input *)
let gadget () =
  let b = Circuit.Builder.create ~name:"gadget" () in
  let a = Circuit.Builder.add_input b "a" in
  let ff = Circuit.Builder.declare_dff b "ff" in
  let g = Circuit.Builder.add_gate b Gate.Nand "g" [ ff; a ] in
  let h = Circuit.Builder.add_gate b Gate.Not "h" [ g ] in
  Circuit.Builder.connect_dff b ff ~d:h;
  let _ = Circuit.Builder.add_output b "po" h in
  Circuit.Builder.build b

let fresh_values c =
  let v = Ternary_sim.make_values c Logic.X in
  Ternary_sim.propagate c v;
  v

let check_seed_becomes_tn () =
  let c = gadget () in
  let ff = Circuit.find c "ff" in
  let st = Scanpower.Tns.compute c ~values:(fresh_values c) ~seeds:[ ff ] ~failed:(no_failed c) in
  Alcotest.(check bool) "seed is tn" true st.Scanpower.Tns.tns.(ff)

let check_unblocked_gate_in_tgs () =
  let c = gadget () in
  let ff = Circuit.find c "ff" and g = Circuit.find c "g" in
  let st = Scanpower.Tns.compute c ~values:(fresh_values c) ~seeds:[ ff ] ~failed:(no_failed c) in
  Alcotest.(check (list int)) "g is the only TGS member" [ g ] st.Scanpower.Tns.tgs;
  Alcotest.(check bool) "g not tn yet" false st.Scanpower.Tns.tns.(g)

let check_controlling_value_blocks () =
  let c = gadget () in
  let ff = Circuit.find c "ff" and g = Circuit.find c "g" in
  let a = Circuit.find c "a" in
  let values = fresh_values c in
  values.(a) <- Logic.Zero;
  (* controlling for NAND *)
  Ternary_sim.propagate c values;
  let st = Scanpower.Tns.compute c ~values ~seeds:[ ff ] ~failed:(no_failed c) in
  Alcotest.(check (list int)) "tgs empty" [] st.Scanpower.Tns.tgs;
  Alcotest.(check bool) "g not tn" false st.Scanpower.Tns.tns.(g);
  Alcotest.(check bool) "h not tn" false st.Scanpower.Tns.tns.(Circuit.find c "h")

let check_noncontrolling_value_propagates () =
  let c = gadget () in
  let ff = Circuit.find c "ff" and g = Circuit.find c "g" in
  let a = Circuit.find c "a" in
  let values = fresh_values c in
  values.(a) <- Logic.One;
  (* non-controlling: the transition passes through *)
  Ternary_sim.propagate c values;
  let st = Scanpower.Tns.compute c ~values ~seeds:[ ff ] ~failed:(no_failed c) in
  Alcotest.(check (list int)) "tgs empty (resolved)" [] st.Scanpower.Tns.tgs;
  Alcotest.(check bool) "g is tn" true st.Scanpower.Tns.tns.(g);
  (* NOT always propagates *)
  Alcotest.(check bool) "h is tn" true st.Scanpower.Tns.tns.(Circuit.find c "h")

let check_inverter_like_always_propagate () =
  let b = Circuit.Builder.create () in
  let ff = Circuit.Builder.declare_dff b "ff" in
  let a = Circuit.Builder.add_input b "a" in
  let x = Circuit.Builder.add_gate b Gate.Xor "x" [ ff; a ] in
  let n = Circuit.Builder.add_gate b Gate.Xnor "n" [ x; a ] in
  Circuit.Builder.connect_dff b ff ~d:n;
  let _ = Circuit.Builder.add_output b "po" n in
  let c = Circuit.Builder.build b in
  let ff_id = Circuit.find c "ff" in
  let values = fresh_values c in
  values.(Circuit.find c "a") <- Logic.One;
  Ternary_sim.propagate c values;
  let st = Scanpower.Tns.compute c ~values ~seeds:[ ff_id ] ~failed:(no_failed c) in
  (* XOR/XNOR cannot block: both downstream nodes toggle, TGS empty *)
  Alcotest.(check bool) "xor is tn" true st.Scanpower.Tns.tns.(Circuit.find c "x");
  Alcotest.(check bool) "xnor is tn" true st.Scanpower.Tns.tns.(Circuit.find c "n");
  Alcotest.(check (list int)) "no blockable gate" [] st.Scanpower.Tns.tgs

let check_failed_gate_spreads () =
  let c = gadget () in
  let ff = Circuit.find c "ff" and g = Circuit.find c "g" in
  let failed = no_failed c in
  failed.(g) <- true;
  let st = Scanpower.Tns.compute c ~values:(fresh_values c) ~seeds:[ ff ] ~failed in
  Alcotest.(check bool) "failed gate forced tn" true st.Scanpower.Tns.tns.(g);
  Alcotest.(check bool) "spreads to NOT" true st.Scanpower.Tns.tns.(Circuit.find c "h")

let check_definite_value_never_tn () =
  (* even a seed-adjacent gate with a definite output value cannot
     toggle *)
  let c = gadget () in
  let ff = Circuit.find c "ff" and g = Circuit.find c "g" in
  let values = fresh_values c in
  values.(Circuit.find c "a") <- Logic.Zero;
  Ternary_sim.propagate c values;
  (* g = NAND(ff, 0) = 1 definite *)
  Alcotest.(check bool) "g definite" true (Logic.equal values.(g) Logic.One);
  let st = Scanpower.Tns.compute c ~values ~seeds:[ ff ] ~failed:(no_failed c) in
  Alcotest.(check bool) "definite never tn" false st.Scanpower.Tns.tns.(g)

let check_pick_largest_load () =
  let c = Techmap.Mapper.map (Circuits.s27 ()) in
  let tgs =
    Array.to_list (Circuit.nodes c)
    |> List.filter_map (fun nd ->
           if Gate.is_logic nd.Circuit.kind then Some nd.Circuit.id else None)
  in
  match Scanpower.Tns.pick_largest_load c tgs with
  | None -> Alcotest.fail "nonempty tgs"
  | Some best ->
    let load = Techmap.Loads.node_load c best in
    List.iter
      (fun id ->
        Alcotest.(check bool) "is maximal" true
          (load >= Techmap.Loads.node_load c id))
      tgs

let check_pick_empty () =
  let c = Techmap.Mapper.map (Circuits.s27 ()) in
  Alcotest.(check bool) "none" true (Scanpower.Tns.pick_largest_load c [] = None)

let check_transition_count () =
  let c = gadget () in
  let ff = Circuit.find c "ff" in
  let st = Scanpower.Tns.compute c ~values:(fresh_values c) ~seeds:[ ff ] ~failed:(no_failed c) in
  Alcotest.(check int) "only the seed" 1 (Scanpower.Tns.transition_count st)

let suite =
  [
    Alcotest.test_case "seed becomes tn" `Quick check_seed_becomes_tn;
    Alcotest.test_case "unblocked gate in TGS" `Quick check_unblocked_gate_in_tgs;
    Alcotest.test_case "controlling value blocks" `Quick check_controlling_value_blocks;
    Alcotest.test_case "non-controlling propagates" `Quick
      check_noncontrolling_value_propagates;
    Alcotest.test_case "xor/xnor always propagate" `Quick
      check_inverter_like_always_propagate;
    Alcotest.test_case "failed gate spreads" `Quick check_failed_gate_spreads;
    Alcotest.test_case "definite value never tn" `Quick check_definite_value_never_tn;
    Alcotest.test_case "pick largest load" `Quick check_pick_largest_load;
    Alcotest.test_case "pick from empty" `Quick check_pick_empty;
    Alcotest.test_case "transition count" `Quick check_transition_count;
  ]
