(* Leakage-observability-directed PODEM-style justification. *)

open Netlist

let logic = Alcotest.testable Logic.pp Logic.equal

let mapped_s27 = lazy (Techmap.Mapper.map (Circuits.s27 ()))

let fresh_values c =
  let v = Ternary_sim.make_values c Logic.X in
  Ternary_sim.propagate c v;
  v

let engine ?(direction = Scanpower.Justify.Structural) c controllable =
  Scanpower.Justify.create c ~controllable ~direction

(* a, b -> NAND g -> NOT h *)
let gadget () =
  let b = Circuit.Builder.create ~name:"j" () in
  let a = Circuit.Builder.add_input b "a" in
  let b2 = Circuit.Builder.add_input b "b" in
  let g = Circuit.Builder.add_gate b Gate.Nand "g" [ a; b2 ] in
  let h = Circuit.Builder.add_gate b Gate.Not "h" [ g ] in
  let _ = Circuit.Builder.add_output b "po" h in
  Circuit.Builder.build b

let check_justify_simple_objective () =
  let c = gadget () in
  let a = Circuit.find c "a" and b2 = Circuit.find c "b" in
  let g = Circuit.find c "g" in
  let e = engine c [ a; b2 ] in
  (* force the NAND output low: needs both inputs 1 *)
  match Scanpower.Justify.justify e ~values:(fresh_values c) g Logic.Zero with
  | None -> Alcotest.fail "must be justifiable"
  | Some v ->
    Alcotest.check logic "a" Logic.One v.(a);
    Alcotest.check logic "b" Logic.One v.(b2);
    Alcotest.check logic "g" Logic.Zero v.(g)

let check_justify_through_inversion () =
  let c = gadget () in
  let a = Circuit.find c "a" and b2 = Circuit.find c "b" in
  let h = Circuit.find c "h" in
  let e = engine c [ a; b2 ] in
  (* h = NOT(NAND(a,b)) = AND: h=1 needs a=b=1 *)
  match Scanpower.Justify.justify e ~values:(fresh_values c) h Logic.One with
  | None -> Alcotest.fail "must be justifiable"
  | Some v -> Alcotest.check logic "h" Logic.One v.(h)

let check_justify_fails_without_control () =
  let c = gadget () in
  let a = Circuit.find c "a" in
  let g = Circuit.find c "g" in
  (* only a is controllable: g=0 needs BOTH inputs 1 *)
  let e = engine c [ a ] in
  Alcotest.(check bool) "unjustifiable" true
    (Scanpower.Justify.justify e ~values:(fresh_values c) g Logic.Zero = None);
  (* but g=1 needs only a=0 *)
  Alcotest.(check bool) "justifiable" true
    (Scanpower.Justify.justify e ~values:(fresh_values c) g Logic.One <> None)

let check_justify_respects_existing_assignment () =
  let c = gadget () in
  let a = Circuit.find c "a" and b2 = Circuit.find c "b" in
  let g = Circuit.find c "g" in
  let e = engine c [ a; b2 ] in
  let values = fresh_values c in
  values.(a) <- Logic.Zero;
  (* pins g to 1 *)
  Ternary_sim.propagate c values;
  Alcotest.(check bool) "conflicting objective fails" true
    (Scanpower.Justify.justify e ~values g Logic.Zero = None);
  (* and the input array is untouched *)
  Alcotest.check logic "input values untouched" Logic.Zero values.(a)

let check_already_satisfied () =
  let c = gadget () in
  let a = Circuit.find c "a" and b2 = Circuit.find c "b" in
  let g = Circuit.find c "g" in
  let e = engine c [ a; b2 ] in
  let values = fresh_values c in
  values.(a) <- Logic.Zero;
  Ternary_sim.propagate c values;
  match Scanpower.Justify.justify e ~values g Logic.One with
  | None -> Alcotest.fail "already satisfied"
  | Some v -> Alcotest.check logic "g" Logic.One v.(g)

let check_controllable_validation () =
  let c = gadget () in
  let g = Circuit.find c "g" in
  Alcotest.check_raises "gate not controllable"
    (Invalid_argument "Justify.create: controllable node is not a source")
    (fun () -> ignore (engine c [ g ]))

let check_order_candidates_directions () =
  let c = Lazy.force mapped_s27 in
  let obs = Power.Observability.compute c in
  let e_leak =
    Scanpower.Justify.create c
      ~controllable:(Array.to_list (Circuit.sources c))
      ~direction:(Scanpower.Justify.Leakage_directed obs)
  in
  let lines = Array.to_list (Circuit.sources c) in
  let for_one = Scanpower.Justify.order_candidates e_leak ~value:Logic.One lines in
  let for_zero = Scanpower.Justify.order_candidates e_leak ~value:Logic.Zero lines in
  (* setting 1: ascending observability; setting 0: descending *)
  let obs_of id = Power.Observability.observability_na obs id in
  let rec ascending = function
    | a :: (b :: _ as rest) -> obs_of a <= obs_of b +. 1e-12 && ascending rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "ascending for 1" true (ascending for_one);
  Alcotest.(check bool) "descending for 0" true (ascending (List.rev for_zero));
  Alcotest.(check (list int)) "same multiset" (List.sort compare for_one)
    (List.sort compare for_zero)

(* Soundness on a real circuit: whenever justification succeeds, an
   independent re-simulation of the returned controlled-input values
   yields the objective. *)
let prop_justify_sound =
  QCheck.Test.make ~name:"justify soundness on s27" ~count:60
    (QCheck.make QCheck.Gen.(pair (int_range 0 10_000) bool))
    (fun (pick, target_one) ->
      let c = Lazy.force mapped_s27 in
      let controllable = Array.to_list (Circuit.sources c) in
      let e = engine c controllable in
      let gates =
        Array.to_list (Circuit.nodes c)
        |> List.filter (fun nd -> Gate.is_logic nd.Circuit.kind)
      in
      let nd = List.nth gates (pick mod List.length gates) in
      let target = if target_one then Logic.One else Logic.Zero in
      match Scanpower.Justify.justify e ~values:(fresh_values c) nd.Circuit.id target with
      | None -> true
      | Some v ->
        (* re-simulate from scratch with only the source assignments *)
        let check = Ternary_sim.make_values c Logic.X in
        Array.iter (fun id -> check.(id) <- v.(id)) (Circuit.sources c);
        Ternary_sim.propagate c check;
        Logic.equal check.(nd.Circuit.id) target)

(* A random netlist over every logic gate kind, with flip-flops feeding
   back as pseudo-inputs. *)
let random_circuit rng =
  let b = Circuit.Builder.create ~name:"rand" () in
  let pool = ref [] in
  for i = 0 to Util.Rng.int rng 5 do
    pool := Circuit.Builder.add_input b (Printf.sprintf "i%d" i) :: !pool
  done;
  let dffs =
    List.init (Util.Rng.int rng 4) (fun i ->
        Circuit.Builder.declare_dff b (Printf.sprintf "q%d" i))
  in
  pool := dffs @ !pool;
  let kinds =
    [| Gate.Buf; Gate.Not; Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor |]
  in
  let pick () =
    let p = Array.of_list !pool in
    p.(Util.Rng.int rng (Array.length p))
  in
  for i = 0 to 4 + Util.Rng.int rng 30 do
    let kind = kinds.(Util.Rng.int rng (Array.length kinds)) in
    let arity = if Gate.min_fanin kind = 1 then 1 else 2 + Util.Rng.int rng 3 in
    let fanins = List.init arity (fun _ -> pick ()) in
    pool := Circuit.Builder.add_gate b kind (Printf.sprintf "g%d" i) fanins :: !pool
  done;
  List.iter (fun q -> Circuit.Builder.connect_dff b q ~d:(pick ())) dffs;
  ignore (Circuit.Builder.add_output b "po" (List.hd !pool));
  Circuit.Builder.build b

(* Event-driven implication against the from-scratch oracle: random
   steps each set one or more sources to 0, 1 or X (several X at once,
   as a backtrack unwinds flipped decisions), then imply once; after
   every step the values equal a full Ternary_sim sweep of the same
   source assignment. *)
let prop_implication_matches_full_sweep =
  QCheck.Test.make ~name:"event-driven implication equals full sweep" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 0 100_000) (int_range 1 40)))
    (fun (seed, steps) ->
      let rng = Util.Rng.create seed in
      let c = random_circuit rng in
      let sources = Circuit.sources c in
      let e = engine c (Array.to_list sources) in
      let work = fresh_values c in
      let ok = ref true in
      for _ = 1 to steps do
        let unassign = Util.Rng.int rng 3 = 0 in
        for _ = 0 to Util.Rng.int rng 3 do
          let src = sources.(Util.Rng.int rng (Array.length sources)) in
          let v =
            if unassign then Logic.X
            else if Util.Rng.bool rng then Logic.One
            else Logic.Zero
          in
          Scanpower.Justify.set_source e work src v
        done;
        Scanpower.Justify.imply e work;
        let oracle = Ternary_sim.make_values c Logic.X in
        Array.iter (fun id -> oracle.(id) <- work.(id)) sources;
        Ternary_sim.propagate c oracle;
        if not (Array.for_all2 Logic.equal oracle work) then ok := false
      done;
      !ok)

let check_set_source_validation () =
  let c = gadget () in
  let e = engine c [] in
  Alcotest.check_raises "gate is not a source"
    (Invalid_argument "Justify.set_source: not a source")
    (fun () ->
      Scanpower.Justify.set_source e (fresh_values c) (Circuit.find c "g") Logic.One)

let suite =
  [
    Alcotest.test_case "simple objective" `Quick check_justify_simple_objective;
    Alcotest.test_case "through inversion" `Quick check_justify_through_inversion;
    Alcotest.test_case "fails without control" `Quick check_justify_fails_without_control;
    Alcotest.test_case "respects existing assignment" `Quick
      check_justify_respects_existing_assignment;
    Alcotest.test_case "already satisfied" `Quick check_already_satisfied;
    Alcotest.test_case "controllable validation" `Quick check_controllable_validation;
    Alcotest.test_case "candidate ordering directions" `Quick
      check_order_candidates_directions;
    QCheck_alcotest.to_alcotest prop_justify_sound;
    Alcotest.test_case "set_source validation" `Quick check_set_source_validation;
    QCheck_alcotest.to_alcotest prop_implication_matches_full_sweep;
  ]
