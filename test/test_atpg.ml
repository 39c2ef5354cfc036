(* ATPG substrate: fault universe and collapsing, PODEM correctness
   (every generated test really detects its fault), batched fault
   simulation against the per-vector full-cone oracle, compaction
   invariants, and the full generation flow. *)

open Netlist

let mapped name = Techmap.Mapper.map (Circuits.by_name name)

let s27m = lazy (mapped "s27")

let check_fault_universe () =
  let c = Lazy.force s27m in
  let faults = Atpg.Fault.all_faults c in
  (* every stem gets both polarities *)
  let stems =
    List.filter
      (fun f ->
        match f.Atpg.Fault.site with
        | Atpg.Fault.Output_line _ -> true
        | Atpg.Fault.Input_pin _ -> false)
      faults
  in
  let n_stem_lines =
    Array.length (Circuit.inputs c)
    + Array.length (Circuit.dffs c)
    + Circuit.gate_count c
  in
  Alcotest.(check int) "stem faults" (2 * n_stem_lines) (List.length stems);
  (* branch faults only on multi-fanout drivers *)
  List.iter
    (fun f ->
      match f.Atpg.Fault.site with
      | Atpg.Fault.Input_pin (gid, pin) ->
        let driver = Circuit.node c (Circuit.node c gid).Circuit.fanins.(pin) in
        Alcotest.(check bool) "driver has fanout > 1" true
          (Array.length driver.Circuit.fanouts > 1)
      | Atpg.Fault.Output_line _ -> ())
    faults

let check_collapsing_drops_controlling_pin_faults () =
  let c = Lazy.force s27m in
  let collapsed = Atpg.Fault.collapsed_faults c in
  List.iter
    (fun f ->
      match f.Atpg.Fault.site with
      | Atpg.Fault.Input_pin (gid, _) ->
        let nd = Circuit.node c gid in
        (match Gate.controlling_value nd.Circuit.kind with
        | Some cv ->
          Alcotest.(check bool) "pin fault is non-controlling polarity" false
            (Logic.equal (Logic.of_bool f.Atpg.Fault.stuck) cv)
        | None -> ())
      | Atpg.Fault.Output_line _ -> ())
    collapsed;
  Alcotest.(check bool) "collapsing shrinks" true
    (List.length collapsed < List.length (Atpg.Fault.all_faults c))

let check_fault_to_string () =
  let c = Lazy.force s27m in
  let stem = { Atpg.Fault.site = Atpg.Fault.Output_line (Circuit.find c "G0"); stuck = false } in
  Alcotest.(check string) "stem" "G0 s-a-0" (Atpg.Fault.to_string c stem)

(* PODEM soundness: every Test result must actually detect the fault
   (checked by the independent full-cone fault simulator with random
   X-fill). *)
let check_podem_tests_detect () =
  let c = Lazy.force s27m in
  let rng = Util.Rng.create 17 in
  let faults = Atpg.Fault.collapsed_faults c in
  let podem = Atpg.Podem.make c and detects = Oracle.detects c in
  let tested = ref 0 in
  List.iter
    (fun f ->
      match Atpg.Podem.generate podem f with
      | Atpg.Podem.Test cube ->
        incr tested;
        let filled = Atpg.Compaction.fill_random rng cube in
        Alcotest.(check bool)
          (Printf.sprintf "detects %s" (Atpg.Fault.to_string c f))
          true
          (detects f filled)
      | Atpg.Podem.Untestable | Atpg.Podem.Aborted -> ())
    faults;
  Alcotest.(check bool) "generated many tests" true (!tested > 20)

let check_podem_finds_most_s27_faults () =
  let c = Lazy.force s27m in
  let faults = Atpg.Fault.collapsed_faults c in
  let podem = Atpg.Podem.make c in
  let outcomes = List.map (Atpg.Podem.generate podem) faults in
  let tests =
    List.length (List.filter (function Atpg.Podem.Test _ -> true | _ -> false) outcomes)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d testable" tests (List.length faults))
    true
    (float_of_int tests > 0.8 *. float_of_int (List.length faults))

let check_fault_sim_agrees_with_cone_oracle () =
  let c = Lazy.force s27m in
  let faults = Atpg.Fault.collapsed_faults c in
  let vectors = Atpg.Pattern_gen.random_vectors ~seed:9 ~count:37 c in
  let detected, undetected = Atpg.Fault_simulation.split c ~faults ~vectors in
  (* the batched, fault-dropping CPT run and one full-cone simulation
     per vector must agree fault by fault *)
  let detects = Oracle.detects c in
  let oracle f = List.exists (fun v -> detects f v) vectors in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "detected %s" (Atpg.Fault.to_string c f))
        true (oracle f))
    detected;
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "undetected %s" (Atpg.Fault.to_string c f))
        false (oracle f))
    undetected

let check_effective_subset_preserves_coverage () =
  let c = Lazy.force s27m in
  let faults = Atpg.Fault.collapsed_faults c in
  let vectors = Atpg.Pattern_gen.random_vectors ~seed:2 ~count:100 c in
  let full = Atpg.Fault_simulation.coverage c ~faults ~vectors in
  let subset = Atpg.Fault_simulation.effective_subset c ~faults ~vectors in
  let sub_cov = Atpg.Fault_simulation.coverage c ~faults ~vectors:subset in
  Alcotest.check (Alcotest.float 1e-9) "coverage preserved" full sub_cov;
  Alcotest.(check bool) "subset smaller" true
    (List.length subset <= List.length vectors)

let check_empty_inputs () =
  let c = Lazy.force s27m in
  let faults = Atpg.Fault.collapsed_faults c in
  let detected, undet = Atpg.Fault_simulation.split c ~faults ~vectors:[] in
  Alcotest.(check int) "nothing detected" 0 (List.length detected);
  Alcotest.(check int) "all remain" (List.length faults) (List.length undet);
  Alcotest.(check int) "empty subset" 0
    (List.length (Atpg.Fault_simulation.effective_subset c ~faults ~vectors:[]))

let cube_gen n =
  QCheck.Gen.(array_size (pure n) (oneofl [ Logic.Zero; Logic.One; Logic.X ]))

let prop_merge_preserves_cares =
  QCheck.Test.make ~name:"cube merge preserves care bits" ~count:200
    (QCheck.make QCheck.Gen.(pair (cube_gen 12) (cube_gen 12)))
    (fun (a, b) ->
      if Atpg.Compaction.compatible a b then begin
        let m = Atpg.Compaction.merge a b in
        let covers x =
          Array.for_all (fun ok -> ok)
            (Array.mapi
               (fun i v -> Logic.equal v Logic.X || Logic.equal m.(i) v)
               x)
        in
        covers a && covers b
      end
      else true)

let prop_merge_cubes_sound =
  QCheck.Test.make ~name:"merge_cubes output covers every input cube" ~count:50
    (QCheck.make QCheck.Gen.(list_size (int_range 1 12) (cube_gen 8)))
    (fun cubes ->
      let merged = Atpg.Compaction.merge_cubes cubes in
      List.length merged <= List.length cubes
      && List.for_all
           (fun cube ->
             List.exists
               (fun m ->
                 Array.for_all (fun ok -> ok)
                   (Array.mapi
                      (fun i v ->
                        Logic.equal v Logic.X || Logic.equal m.(i) v)
                      cube))
               merged)
           cubes)

let check_incompatible_merge_raises () =
  Alcotest.check_raises "incompatible"
    (Invalid_argument "Compaction.merge: incompatible") (fun () ->
      ignore (Atpg.Compaction.merge [| Logic.Zero |] [| Logic.One |]))

let check_fill () =
  let rng = Util.Rng.create 4 in
  let cube = [| Logic.Zero; Logic.X; Logic.One |] in
  let filled = Atpg.Compaction.fill_random rng cube in
  Alcotest.(check bool) "cares preserved" true
    ((not filled.(0)) && filled.(2));
  let zeros = Atpg.Compaction.fill_constant false cube in
  Alcotest.(check (array bool)) "constant fill" [| false; false; true |] zeros

let check_full_generation_flow () =
  let c = Lazy.force s27m in
  let outcome = Atpg.Pattern_gen.generate c in
  Alcotest.(check bool) "good coverage" true (outcome.Atpg.Pattern_gen.coverage > 0.85);
  Alcotest.(check bool) "produces vectors" true
    (outcome.Atpg.Pattern_gen.vectors <> []);
  (* announced coverage must be reproducible by independent fault sim *)
  let faults = Atpg.Fault.collapsed_faults c in
  let indep =
    Atpg.Fault_simulation.coverage c ~faults
      ~vectors:outcome.Atpg.Pattern_gen.vectors
  in
  let testable =
    float_of_int (outcome.Atpg.Pattern_gen.total_faults - outcome.Atpg.Pattern_gen.untestable)
  in
  let announced =
    float_of_int outcome.Atpg.Pattern_gen.detected /. float_of_int outcome.Atpg.Pattern_gen.total_faults
  in
  ignore testable;
  Alcotest.(check bool)
    (Printf.sprintf "independent %.2f >= announced-over-total %.2f" indep announced)
    true
    (indep +. 1e-9 >= announced)

(* The reported detected count is what the returned test set detects:
   fault-simulating the vectors over every collapsed fault finds exactly
   [detected] faults, aborted ones included (s1196 once reported 816
   where its vectors detect 869). *)
let check_detected_matches_fault_sim names =
  List.iter
    (fun name ->
      let c = mapped name in
      let o = Atpg.Pattern_gen.generate c in
      let found, _ =
        Atpg.Fault_simulation.split c ~faults:(Atpg.Fault.collapsed_faults c)
          ~vectors:o.Atpg.Pattern_gen.vectors
      in
      Alcotest.(check int)
        (name ^ " detected") (List.length found) o.Atpg.Pattern_gen.detected;
      Alcotest.(check int)
        (name ^ " classes add up") o.Atpg.Pattern_gen.total_faults
        Atpg.Pattern_gen.(o.detected + o.untestable + o.aborted))
    names

let check_detected_small () =
  check_detected_matches_fault_sim [ "s27"; "s344"; "s1196" ]

(* Every s5378 fault ends detected, untestable or aborted: PODEM
   attempts all of them (a 4000-attempt budget once left 697 faults
   unclassified, and before that counted them detected) *)
let check_s5378_classified () =
  check_detected_matches_fault_sim [ "s5378" ]

let check_generation_deterministic () =
  let c = Lazy.force s27m in
  let o1 = Atpg.Pattern_gen.generate c in
  let o2 = Atpg.Pattern_gen.generate c in
  Alcotest.(check bool) "same vectors" true
    (o1.Atpg.Pattern_gen.vectors = o2.Atpg.Pattern_gen.vectors)

let suite =
  [
    Alcotest.test_case "fault universe" `Quick check_fault_universe;
    Alcotest.test_case "collapsing" `Quick check_collapsing_drops_controlling_pin_faults;
    Alcotest.test_case "fault printing" `Quick check_fault_to_string;
    Alcotest.test_case "podem tests detect" `Quick check_podem_tests_detect;
    Alcotest.test_case "podem finds most faults" `Quick check_podem_finds_most_s27_faults;
    Alcotest.test_case "fault sim agrees with oracle" `Quick
      check_fault_sim_agrees_with_cone_oracle;
    Alcotest.test_case "effective subset preserves coverage" `Quick
      check_effective_subset_preserves_coverage;
    Alcotest.test_case "empty inputs" `Quick check_empty_inputs;
    QCheck_alcotest.to_alcotest prop_merge_preserves_cares;
    QCheck_alcotest.to_alcotest prop_merge_cubes_sound;
    Alcotest.test_case "incompatible merge raises" `Quick check_incompatible_merge_raises;
    Alcotest.test_case "cube filling" `Quick check_fill;
    Alcotest.test_case "full generation flow" `Quick check_full_generation_flow;
    Alcotest.test_case "generation deterministic" `Quick check_generation_deterministic;
    Alcotest.test_case "detected equals fault sim of the test set" `Quick
      check_detected_small;
    Alcotest.test_case "every s5378 fault classified" `Slow
      check_s5378_classified;
  ]
