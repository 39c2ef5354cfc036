(* SCOAP testability measures and their effect on PODEM. *)

open Netlist

let check_source_costs () =
  let c = Techmap.Mapper.map (Circuits.s27 ()) in
  let s = Atpg.Scoap.compute c in
  Array.iter
    (fun id ->
      Alcotest.(check int) "cc0 of source" 1 (Atpg.Scoap.cc0 s id);
      Alcotest.(check int) "cc1 of source" 1 (Atpg.Scoap.cc1 s id))
    (Circuit.sources c)

let chain_circuit n =
  (* a -> NOT -> NOT -> ... (n inverters) -> po *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.add_input b "a" in
  let rec build prev i =
    if i = n then prev
    else build (Circuit.Builder.add_gate b Gate.Not (Printf.sprintf "i%d" i) [ prev ]) (i + 1)
  in
  let last = build a 0 in
  let _ = Circuit.Builder.add_output b "po" last in
  (Circuit.Builder.build b, n)

let check_controllability_grows_with_depth () =
  let c, n = chain_circuit 6 in
  let s = Atpg.Scoap.compute c in
  let last = Circuit.find c (Printf.sprintf "i%d" (n - 1)) in
  let first = Circuit.find c "i0" in
  Alcotest.(check bool) "deeper costs more" true
    (Atpg.Scoap.cc0 s last > Atpg.Scoap.cc0 s first);
  (* inverter chain: cc0 at depth d = d + 1 *)
  Alcotest.(check int) "exact chain cost" (n + 1) (Atpg.Scoap.cc0 s last)

let check_inverter_swaps_polarity () =
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.add_input b "a" in
  let a2 = Circuit.Builder.add_input b "b" in
  let g = Circuit.Builder.add_gate b Gate.And "g" [ a; a2 ] in
  let inv = Circuit.Builder.add_gate b Gate.Not "inv" [ g ] in
  let _ = Circuit.Builder.add_output b "po" inv in
  let c = Circuit.Builder.build b in
  let s = Atpg.Scoap.compute c in
  (* AND of two inputs: cc1 = 1+1+1 = 3, cc0 = 1+1 = 2 *)
  Alcotest.(check int) "and cc1" 3 (Atpg.Scoap.cc1 s g);
  Alcotest.(check int) "and cc0" 2 (Atpg.Scoap.cc0 s g);
  Alcotest.(check int) "not swaps" 4 (Atpg.Scoap.cc0 s inv);
  Alcotest.(check int) "not swaps (1)" 3 (Atpg.Scoap.cc1 s inv)

let check_observability_zero_at_endpoints () =
  let c = Techmap.Mapper.map (Circuits.s27 ()) in
  let s = Atpg.Scoap.compute c in
  Array.iter
    (fun id ->
      Alcotest.(check int) "marker observability" 0 (Atpg.Scoap.observability s id))
    (Circuit.outputs c);
  (* every line of this small circuit can reach an endpoint *)
  Array.iter
    (fun nd ->
      if not (Gate.equal_kind nd.Circuit.kind Gate.Output) then
        Alcotest.(check bool)
          (Printf.sprintf "%s observable" nd.Circuit.name)
          true
          (Atpg.Scoap.observability s nd.Circuit.id < 1_000_000))
    (Circuit.nodes c)

let check_observability_decreases_toward_outputs () =
  let c, n = chain_circuit 6 in
  let s = Atpg.Scoap.compute c in
  let first = Circuit.find c "i0" in
  let last = Circuit.find c (Printf.sprintf "i%d" (n - 1)) in
  Alcotest.(check bool) "closer to output, easier to observe" true
    (Atpg.Scoap.observability s last < Atpg.Scoap.observability s first)

let check_input_picking () =
  let b = Circuit.Builder.create () in
  let easy = Circuit.Builder.add_input b "easy" in
  let a2 = Circuit.Builder.add_input b "x" in
  let a3 = Circuit.Builder.add_input b "y" in
  let hard_src = Circuit.Builder.add_gate b Gate.And "hard" [ a2; a3 ] in
  let g = Circuit.Builder.add_gate b Gate.And "g" [ easy; hard_src ] in
  let _ = Circuit.Builder.add_output b "po" g in
  let c = Circuit.Builder.build b in
  let s = Atpg.Scoap.compute c in
  Alcotest.(check (option int)) "hardest to set 1" (Some hard_src)
    (Atpg.Scoap.hardest_input s c g Logic.One);
  Alcotest.(check (option int)) "easiest to set 1" (Some easy)
    (Atpg.Scoap.easiest_input s c g Logic.One)

let check_guided_podem_still_sound () =
  let c = Techmap.Mapper.map (Circuits.s27 ()) in
  let guide = Atpg.Scoap.compute c in
  let rng = Util.Rng.create 6 in
  let podem = Atpg.Podem.make ~guide c and detects = Oracle.detects c in
  List.iter
    (fun f ->
      match Atpg.Podem.generate podem f with
      | Atpg.Podem.Test cube ->
        let filled = Atpg.Compaction.fill_random rng cube in
        Alcotest.(check bool)
          (Printf.sprintf "guided test detects %s" (Atpg.Fault.to_string c f))
          true
          (detects f filled)
      | Atpg.Podem.Untestable | Atpg.Podem.Aborted -> ())
    (Atpg.Fault.collapsed_faults c)

let check_guided_matches_unguided_testability () =
  let c = Techmap.Mapper.map (Circuits.s27 ()) in
  let guide = Atpg.Scoap.compute c in
  let plain = Atpg.Podem.make c and guided = Atpg.Podem.make ~guide c in
  List.iter
    (fun f ->
      let to_tag = function
        | Atpg.Podem.Test _ -> `T
        | Atpg.Podem.Untestable -> `U
        | Atpg.Podem.Aborted -> `A
      in
      match
        (to_tag (Atpg.Podem.generate plain f), to_tag (Atpg.Podem.generate guided f))
      with
      | `T, `U | `U, `T ->
        Alcotest.failf "testability flipped for %s" (Atpg.Fault.to_string c f)
      | (`T | `U | `A), _ -> ())
    (Atpg.Fault.collapsed_faults c)

let suite =
  [
    Alcotest.test_case "source costs" `Quick check_source_costs;
    Alcotest.test_case "controllability grows with depth" `Quick
      check_controllability_grows_with_depth;
    Alcotest.test_case "inverter swaps polarity" `Quick check_inverter_swaps_polarity;
    Alcotest.test_case "observability at endpoints" `Quick
      check_observability_zero_at_endpoints;
    Alcotest.test_case "observability decreases toward outputs" `Quick
      check_observability_decreases_toward_outputs;
    Alcotest.test_case "input picking" `Quick check_input_picking;
    Alcotest.test_case "guided podem sound" `Quick check_guided_podem_still_sound;
    Alcotest.test_case "guided matches unguided testability" `Quick
      check_guided_matches_unguided_testability;
  ]
