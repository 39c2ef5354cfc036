(* The D-algorithm engine, and its fault-by-fault cross-validation
   against PODEM (this exact check exposed a D-frontier bug in the
   PODEM engine during development: for input-pin faults the D lives
   only on the faulted branch, invisible on the stem value). *)

open Netlist

let mapped name = Techmap.Mapper.map (Circuits.by_name name)

let check_sound_tests name () =
  let c = mapped name in
  let rng = Util.Rng.create 5 in
  let detects = Oracle.detects c in
  let tested = ref 0 in
  List.iter
    (fun f ->
      match Atpg.D_algorithm.generate c f with
      | Atpg.D_algorithm.Test cube ->
        incr tested;
        let filled = Atpg.Compaction.fill_random rng cube in
        Alcotest.(check bool)
          (Printf.sprintf "detects %s" (Atpg.Fault.to_string c f))
          true
          (detects f filled)
      | Atpg.D_algorithm.Untestable | Atpg.D_algorithm.Aborted -> ())
    (Atpg.Fault.collapsed_faults c);
  Alcotest.(check bool) "found tests" true (!tested > 20)

let agreement name () =
  let c = mapped name in
  let podem = Atpg.Podem.make c in
  List.iter
    (fun f ->
      let p = Atpg.Podem.generate podem f in
      let d = Atpg.D_algorithm.generate c f in
      match p, d with
      | Atpg.Podem.Aborted, _ | _, Atpg.D_algorithm.Aborted -> ()
      | Atpg.Podem.Test _, Atpg.D_algorithm.Test _
      | Atpg.Podem.Untestable, Atpg.D_algorithm.Untestable ->
        ()
      | Atpg.Podem.Test _, Atpg.D_algorithm.Untestable ->
        Alcotest.failf "%s: PODEM found a test, D-algorithm claims untestable"
          (Atpg.Fault.to_string c f)
      | Atpg.Podem.Untestable, Atpg.D_algorithm.Test _ ->
        Alcotest.failf "%s: D-algorithm found a test, PODEM claims untestable"
          (Atpg.Fault.to_string c f))
    (Atpg.Fault.collapsed_faults c)

let check_known_untestable () =
  (* redundant logic: g = OR(a, NOT a) is constantly 1, so g s-a-1 is
     untestable; both engines must prove it *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.add_input b "a" in
  let na = Circuit.Builder.add_gate b Gate.Not "na" [ a ] in
  let g = Circuit.Builder.add_gate b Gate.Or "g" [ a; na ] in
  let h = Circuit.Builder.add_gate b Gate.Not "h" [ g ] in
  let _ = Circuit.Builder.add_output b "po" h in
  let c = Circuit.Builder.build b in
  let fault = { Atpg.Fault.site = Atpg.Fault.Output_line g; stuck = true } in
  Alcotest.(check bool) "podem proves untestable" true
    (Atpg.Podem.generate (Atpg.Podem.make c) fault = Atpg.Podem.Untestable);
  Alcotest.(check bool) "d-algorithm proves untestable" true
    (Atpg.D_algorithm.generate c fault = Atpg.D_algorithm.Untestable)

let check_simple_test_found () =
  (* g stuck-at-0 on an AND output: test = all inputs 1 *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.add_input b "a" in
  let a2 = Circuit.Builder.add_input b "b" in
  let g = Circuit.Builder.add_gate b Gate.And "g" [ a; a2 ] in
  let _ = Circuit.Builder.add_output b "po" g in
  let c = Circuit.Builder.build b in
  let fault = { Atpg.Fault.site = Atpg.Fault.Output_line g; stuck = false } in
  match Atpg.D_algorithm.generate c fault with
  | Atpg.D_algorithm.Test cube ->
    Alcotest.(check bool) "a=1" true (Logic.equal cube.(0) Logic.One);
    Alcotest.(check bool) "b=1" true (Logic.equal cube.(1) Logic.One)
  | Atpg.D_algorithm.Untestable | Atpg.D_algorithm.Aborted ->
    Alcotest.fail "testable fault"

let suite =
  [
    Alcotest.test_case "simple test found" `Quick check_simple_test_found;
    Alcotest.test_case "known untestable proven" `Quick check_known_untestable;
    Alcotest.test_case "sound on s27" `Quick (check_sound_tests "s27");
    Alcotest.test_case "agrees with PODEM on s27" `Quick (agreement "s27");
    Alcotest.test_case "sound on s344" `Slow (check_sound_tests "s344");
    Alcotest.test_case "agrees with PODEM on s344" `Slow (agreement "s344");
  ]
