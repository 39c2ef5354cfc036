(* Simulators: ternary propagation, event-driven toggle counting,
   sequential stepping; cross-validation between the three. *)

open Netlist

let logic = Alcotest.testable Logic.pp Logic.equal

let s27 = lazy (Circuits.s27 ())

let check_ternary_known_vector () =
  let c = Lazy.force s27 in
  (* all inputs 0, state 000: from the s27 netlist,
     G14 = NOT(G0)=1, G12 = NOR(G1,G7)=1, G13=NAND(G2,G12)=1,
     G8=AND(G14,G6)=0, G15=OR(G12,G8)=1, G16=OR(G3,G8)=0,
     G9=NAND(G16,G15)=1, G10=NOR(G14,G11)=0, G11=NOR(G5,G9)=0, G17=NOT(G11)=1 *)
  let values =
    Ternary_sim.eval c ~inputs:(fun _ -> Logic.Zero) ~state:(fun _ -> Logic.Zero)
  in
  let v name = values.(Circuit.find c name) in
  Alcotest.check logic "G14" Logic.One (v "G14");
  Alcotest.check logic "G8" Logic.Zero (v "G8");
  Alcotest.check logic "G11" Logic.Zero (v "G11");
  Alcotest.check logic "G17" Logic.One (v "G17");
  Alcotest.check (Alcotest.array logic) "outputs" [| Logic.One |]
    (Ternary_sim.outputs_of c values)

let check_x_propagation () =
  let c = Lazy.force s27 in
  (* all X in gives X out *)
  let values =
    Ternary_sim.eval c ~inputs:(fun _ -> Logic.X) ~state:(fun _ -> Logic.X)
  in
  Alcotest.check logic "output X" Logic.X (Ternary_sim.outputs_of c values).(0);
  (* but a controlling input pins some nodes: G0=0 forces G14=1 *)
  let values =
    Ternary_sim.eval c
      ~inputs:(fun i -> if i = 0 then Logic.Zero else Logic.X)
      ~state:(fun _ -> Logic.X)
  in
  Alcotest.check logic "G14 definite" Logic.One values.(Circuit.find c "G14")

let check_eval_vector_validation () =
  let c = Lazy.force s27 in
  Alcotest.check_raises "wrong pi count"
    (Invalid_argument "Ternary_sim.eval_vector: wrong number of input values")
    (fun () -> ignore (Ternary_sim.eval_vector c [| Logic.X |] [| Logic.X; Logic.X; Logic.X |]))

(* Event simulator agrees with a fresh full ternary evaluation after
   arbitrary source-change sequences. *)
let prop_event_sim_matches_full_eval =
  QCheck.Test.make ~name:"event sim equals full re-evaluation" ~count:30
    (QCheck.make QCheck.Gen.(pair (int_range 0 1000) (int_range 1 30)))
    (fun (seed, steps) ->
      let c = Techmap.Mapper.map (Lazy.force s27) in
      let rng = Util.Rng.create seed in
      let sim = Event_sim.create c in
      let sources = Circuit.sources c in
      let current = Array.make (Circuit.node_count c) false in
      Event_sim.init sim (fun _ -> false);
      let ok = ref true in
      for _ = 1 to steps do
        (* flip a random subset of sources *)
        let changes = ref [] in
        Array.iter
          (fun id ->
            if Util.Rng.bool rng then begin
              current.(id) <- not current.(id);
              changes := (id, current.(id)) :: !changes
            end)
          sources;
        ignore (Event_sim.set_sources sim !changes);
        (* reference: full ternary evaluation *)
        let reference =
          Ternary_sim.eval c
            ~inputs:(fun i -> Logic.of_bool current.((Circuit.inputs c).(i)))
            ~state:(fun i -> Logic.of_bool current.((Circuit.dffs c).(i)))
        in
        let actual = Event_sim.values sim in
        Array.iteri
          (fun id v ->
            match Logic.to_bool reference.(id) with
            | Some b -> if b <> v then ok := false
            | None -> ())
          actual
      done;
      !ok)

let check_toggle_counting () =
  let c = Techmap.Mapper.map (Lazy.force s27) in
  let sim = Event_sim.create c in
  Event_sim.init sim (fun _ -> false);
  Alcotest.(check int) "no toggles after init" 0 (Event_sim.total_toggles sim);
  let g0 = Circuit.find c "G0" in
  let caused = Event_sim.set_sources sim [ (g0, true) ] in
  Alcotest.(check bool) "some toggles" true (caused > 0);
  Alcotest.(check int) "total matches" caused (Event_sim.total_toggles sim);
  (* flipping back doubles the count *)
  let caused2 = Event_sim.set_sources sim [ (g0, false) ] in
  Alcotest.(check int) "same cone both ways" caused caused2;
  (* no-change set_sources costs nothing *)
  let caused3 = Event_sim.set_sources sim [ (g0, false) ] in
  Alcotest.(check int) "no-op" 0 caused3;
  Event_sim.reset_counts sim;
  Alcotest.(check int) "reset" 0 (Event_sim.total_toggles sim)

let check_event_sim_rejects_non_source () =
  let c = Techmap.Mapper.map (Lazy.force s27) in
  let sim = Event_sim.create c in
  Event_sim.init sim (fun _ -> false);
  let gate =
    Array.to_list (Circuit.nodes c)
    |> List.find (fun nd -> Gate.is_logic nd.Circuit.kind)
  in
  Alcotest.check_raises "non-source"
    (Invalid_argument "Event_sim.set_sources: not a source node") (fun () ->
      ignore (Event_sim.set_sources sim [ (gate.Circuit.id, true) ]))

let check_blocking_limits_toggles () =
  (* a controlling side input suppresses downstream activity:
     c = NAND(a, b); holding b=0 pins c=1, so toggling a cannot
     propagate past c *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.add_input b "a" in
  let bb = Circuit.Builder.add_input b "b" in
  let g = Circuit.Builder.add_gate b Gate.Nand "g" [ a; bb ] in
  let h = Circuit.Builder.add_gate b Gate.Not "h" [ g ] in
  let _ = Circuit.Builder.add_output b "po" h in
  let c = Circuit.Builder.build b in
  let sim = Event_sim.create c in
  Event_sim.init sim (fun _ -> false);
  let caused = Event_sim.set_sources sim [ (a, true) ] in
  Alcotest.(check int) "only the source toggles" 1 caused

let check_seq_sim_state_evolution () =
  let c = Lazy.force s27 in
  let sim = Seq_sim.create c in
  Alcotest.(check (array bool)) "initial state" [| false; false; false |]
    (Seq_sim.state sim);
  let v = [| false; false; false; false |] in
  let _ = Seq_sim.step sim v in
  (* next state: G10=0, G11=0, G13=1 (from the hand evaluation above) *)
  Alcotest.(check (array bool)) "state after step" [| false; false; true |]
    (Seq_sim.state sim);
  (* outputs_only must not clock *)
  let st = Seq_sim.state sim in
  let _ = Seq_sim.outputs_only sim v in
  Alcotest.(check (array bool)) "unclocked" st (Seq_sim.state sim)

let check_seq_sim_run_length () =
  let c = Lazy.force s27 in
  let sim = Seq_sim.create c in
  let vs = List.init 5 (fun _ -> [| false; true; false; true |]) in
  Alcotest.(check int) "five responses" 5 (List.length (Seq_sim.run sim vs))

let suite =
  [
    Alcotest.test_case "ternary known vector" `Quick check_ternary_known_vector;
    Alcotest.test_case "X propagation" `Quick check_x_propagation;
    Alcotest.test_case "eval_vector validation" `Quick check_eval_vector_validation;
    QCheck_alcotest.to_alcotest prop_event_sim_matches_full_eval;
    Alcotest.test_case "toggle counting" `Quick check_toggle_counting;
    Alcotest.test_case "event sim rejects non-source" `Quick
      check_event_sim_rejects_non_source;
    Alcotest.test_case "blocking limits toggles" `Quick check_blocking_limits_toggles;
    Alcotest.test_case "seq sim state evolution" `Quick check_seq_sim_state_evolution;
    Alcotest.test_case "seq sim run length" `Quick check_seq_sim_run_length;
  ]
