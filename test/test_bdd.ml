(* ROBDD engine and the symbolic circuit analyses built on it. *)

open Netlist

let mgr () = Bdd.manager ()

let check_constants () =
  let m = mgr () in
  Alcotest.(check bool) "0 const" true (Bdd.is_const (Bdd.zero m) = Some false);
  Alcotest.(check bool) "1 const" true (Bdd.is_const (Bdd.one m) = Some true);
  Alcotest.(check bool) "var not const" true (Bdd.is_const (Bdd.var m 0) = None)

let check_hash_consing () =
  let m = mgr () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  Alcotest.(check bool) "same var same node" true (Bdd.equal a (Bdd.var m 0));
  Alcotest.(check bool) "and commutes to same node" true
    (Bdd.equal (Bdd.band m a b) (Bdd.band m b a));
  Alcotest.(check bool) "double negation" true
    (Bdd.equal a (Bdd.bnot m (Bdd.bnot m a)))

let check_boolean_identities () =
  let m = mgr () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 and c = Bdd.var m 2 in
  (* De Morgan *)
  Alcotest.(check bool) "de morgan" true
    (Bdd.equal (Bdd.bnot m (Bdd.band m a b)) (Bdd.bor m (Bdd.bnot m a) (Bdd.bnot m b)));
  (* distribution *)
  Alcotest.(check bool) "distribution" true
    (Bdd.equal
       (Bdd.band m a (Bdd.bor m b c))
       (Bdd.bor m (Bdd.band m a b) (Bdd.band m a c)));
  (* xor via and/or *)
  Alcotest.(check bool) "xor expansion" true
    (Bdd.equal (Bdd.bxor m a b)
       (Bdd.bor m
          (Bdd.band m a (Bdd.bnot m b))
          (Bdd.band m (Bdd.bnot m a) b)));
  Alcotest.(check bool) "a xor a = 0" true
    (Bdd.equal (Bdd.bxor m a a) (Bdd.zero m))

let check_eval_agrees () =
  let m = mgr () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 and c = Bdd.var m 2 in
  let f = Bdd.bor m (Bdd.band m a b) (Bdd.bxor m b c) in
  for mask = 0 to 7 do
    let assignment i = mask land (1 lsl i) <> 0 in
    let expect =
      (assignment 0 && assignment 1) || assignment 1 <> assignment 2
    in
    Alcotest.(check bool) (Printf.sprintf "mask %d" mask) expect
      (Bdd.eval f assignment)
  done

let check_restrict_and_exists () =
  let m = mgr () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  let f = Bdd.band m a b in
  Alcotest.(check bool) "restrict a=1" true
    (Bdd.equal (Bdd.restrict m f 0 true) b);
  Alcotest.(check bool) "restrict a=0" true
    (Bdd.equal (Bdd.restrict m f 0 false) (Bdd.zero m));
  Alcotest.(check bool) "exists a" true (Bdd.equal (Bdd.exists m f 0) b)

let check_sat_count () =
  let m = mgr () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  Alcotest.check (Alcotest.float 1e-9) "and" 1.0
    (Bdd.sat_count m (Bdd.band m a b) ~n_vars:2);
  Alcotest.check (Alcotest.float 1e-9) "or" 3.0
    (Bdd.sat_count m (Bdd.bor m a b) ~n_vars:2);
  Alcotest.check (Alcotest.float 1e-9) "xor over 3 vars" 4.0
    (Bdd.sat_count m (Bdd.bxor m a b) ~n_vars:3)

let check_probability () =
  let m = mgr () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  let p = function 0 -> 0.9 | _ -> 0.5 in
  Alcotest.check (Alcotest.float 1e-9) "and" (0.9 *. 0.5)
    (Bdd.probability m (Bdd.band m a b) ~p);
  Alcotest.check (Alcotest.float 1e-9) "not a" 0.1
    (Bdd.probability m (Bdd.bnot m a) ~p)

let check_any_sat () =
  let m = mgr () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  Alcotest.(check bool) "zero unsat" true (Bdd.any_sat (Bdd.zero m) = None);
  let f = Bdd.band m (Bdd.bnot m a) b in
  (match Bdd.any_sat f with
  | None -> Alcotest.fail "satisfiable"
  | Some assignment ->
    let value i = List.assoc_opt i assignment = Some true in
    Alcotest.(check bool) "assignment satisfies" true (Bdd.eval f value))

let check_size () =
  let m = mgr () in
  let a = Bdd.var m 0 in
  Alcotest.(check int) "var size" 1 (Bdd.size a);
  Alcotest.(check int) "const size" 0 (Bdd.size (Bdd.zero m))

(* property: BDD semantics equals direct evaluation of random formulas *)
let prop_random_formula_semantics =
  let build_formula m rng depth =
    let rec go depth =
      if depth = 0 then
        let v = Util.Rng.int rng 5 in
        ((fun env -> env v), Bdd.var m v)
      else begin
        match Util.Rng.int rng 4 with
        | 0 ->
          let f, bf = go (depth - 1) in
          ((fun env -> not (f env)), Bdd.bnot m bf)
        | 1 ->
          let f, bf = go (depth - 1) and g, bg = go (depth - 1) in
          ((fun env -> f env && g env), Bdd.band m bf bg)
        | 2 ->
          let f, bf = go (depth - 1) and g, bg = go (depth - 1) in
          ((fun env -> f env || g env), Bdd.bor m bf bg)
        | _ ->
          let f, bf = go (depth - 1) and g, bg = go (depth - 1) in
          ((fun env -> f env <> g env), Bdd.bxor m bf bg)
      end
    in
    go depth
  in
  QCheck.Test.make ~name:"BDD equals direct evaluation" ~count:60
    (QCheck.make QCheck.Gen.(pair (int_range 0 10_000) (int_range 1 5)))
    (fun (seed, depth) ->
      let m = Bdd.manager () in
      let rng = Util.Rng.create seed in
      let f, bf = build_formula m rng depth in
      let ok = ref true in
      for mask = 0 to 31 do
        let env i = mask land (1 lsl i) <> 0 in
        if f env <> Bdd.eval bf env then ok := false
      done;
      !ok)

(* ---------- circuit-level ---------- *)

let mapped name = Techmap.Mapper.map (Circuits.by_name name)

let check_circuit_functions () =
  let c = mapped "s27" in
  let sym = Bdd.Circuit_bdd.build c in
  (* BDD evaluation of each output equals logic simulation for random
     source assignments *)
  let rng = Util.Rng.create 3 in
  for _ = 1 to 50 do
    let srcs = Util.Rng.bool_array rng (Array.length (Circuit.sources c)) in
    let values =
      Ternary_sim.eval c
        ~inputs:(fun i -> Logic.of_bool srcs.(i))
        ~state:(fun i ->
          Logic.of_bool srcs.(Array.length (Circuit.inputs c) + i))
    in
    Array.iter
      (fun nd ->
        if Gate.is_logic nd.Circuit.kind then begin
          let expect =
            match Logic.to_bool values.(nd.Circuit.id) with
            | Some b -> b
            | None -> Alcotest.fail "two-valued inputs"
          in
          Alcotest.(check bool) nd.Circuit.name expect
            (Bdd.eval
               (Bdd.Circuit_bdd.node_function sym nd.Circuit.id)
               (fun i -> srcs.(i)))
        end)
      (Circuit.nodes c)
  done

let check_exact_probabilities_vs_sampling () =
  let c = mapped "s27" in
  let sym = Bdd.Circuit_bdd.build c in
  let exact = Bdd.Circuit_bdd.probabilities sym () in
  (* exhaustive check over all 2^7 source assignments *)
  let n_src = Array.length (Circuit.sources c) in
  let counts = Array.make (Circuit.node_count c) 0 in
  for mask = 0 to (1 lsl n_src) - 1 do
    let srcs = Array.init n_src (fun i -> mask land (1 lsl i) <> 0) in
    let values =
      Ternary_sim.eval c
        ~inputs:(fun i -> Logic.of_bool srcs.(i))
        ~state:(fun i ->
          Logic.of_bool srcs.(Array.length (Circuit.inputs c) + i))
    in
    Array.iteri
      (fun id v -> if Logic.equal v Logic.One then counts.(id) <- counts.(id) + 1)
      values
  done;
  Array.iter
    (fun nd ->
      if Gate.is_logic nd.Circuit.kind then
        Alcotest.check (Alcotest.float 1e-9)
          (Printf.sprintf "probability of %s" nd.Circuit.name)
          (float_of_int counts.(nd.Circuit.id) /. float_of_int (1 lsl n_src))
          exact.(nd.Circuit.id))
    (Circuit.nodes c)

let check_exact_leakage_vs_exhaustive () =
  let c = mapped "s27" in
  let sym = Bdd.Circuit_bdd.build c in
  let exact = Bdd.Circuit_bdd.exact_expected_leakage_uw sym () in
  let n_src = Array.length (Circuit.sources c) in
  let total = ref 0.0 in
  let values = Array.make (Circuit.node_count c) false in
  for mask = 0 to (1 lsl n_src) - 1 do
    Array.iteri
      (fun i id -> values.(id) <- mask land (1 lsl i) <> 0)
      (Circuit.sources c);
    Array.iter
      (fun id ->
        let nd = Circuit.node c id in
        if not (Gate.is_source nd.kind) then
          values.(id) <-
            Gate.eval_bool nd.kind (Array.map (fun f -> values.(f)) nd.fanins))
      (Circuit.topo_order c);
    total := !total +. Power.Leakage.total_leakage_uw c values
  done;
  Alcotest.check (Alcotest.float 1e-6) "matches exhaustive average"
    (!total /. float_of_int (1 lsl n_src))
    exact

let check_equivalence_mapper () =
  let c = Circuits.s27 () in
  let c' = Techmap.Mapper.map c in
  Alcotest.(check bool) "s27 = mapped s27" true (Bdd.Circuit_bdd.equivalent c c')

let check_equivalence_reorder () =
  let c = mapped "s382" in
  let c' = Circuit.copy c in
  let values = Ternary_sim.make_values c Logic.X in
  Ternary_sim.propagate c values;
  let _ = Scanpower.Input_reorder.optimize c' ~values in
  Alcotest.(check bool) "reordered circuit equivalent" true
    (Bdd.Circuit_bdd.equivalent c c')

let check_equivalence_detects_difference () =
  (* NAND(a,b) is not AND(a,b) *)
  let build kind =
    let b = Circuit.Builder.create () in
    let a = Circuit.Builder.add_input b "a" in
    let b2 = Circuit.Builder.add_input b "b" in
    let g = Circuit.Builder.add_gate b kind "g" [ a; b2 ] in
    let _ = Circuit.Builder.add_output b "po" g in
    Circuit.Builder.build b
  in
  Alcotest.(check bool) "detects" false
    (Bdd.Circuit_bdd.equivalent (build Gate.Nand) (build Gate.And))

let check_interface_mismatch_rejected () =
  let c1 = mapped "s27" and c2 = mapped "s344" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Bdd.Circuit_bdd.equivalent c1 c2);
       false
     with Invalid_argument _ -> true)

let check_observability_independence_error () =
  (* the analytic observability engine assumes independence; on s27 the
     exact probabilities quantify the error, which must be modest *)
  let c = mapped "s27" in
  let sym = Bdd.Circuit_bdd.build c in
  let exact = Bdd.Circuit_bdd.probabilities sym () in
  let obs = Power.Observability.compute c in
  Array.iter
    (fun nd ->
      if Gate.is_logic nd.Circuit.kind then begin
        let err =
          Float.abs
            (exact.(nd.Circuit.id)
            -. Power.Observability.probability obs nd.Circuit.id)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s error %.3f < 0.25" nd.Circuit.name err)
          true (err < 0.25)
      end)
    (Circuit.nodes c)

let suite =
  [
    Alcotest.test_case "constants" `Quick check_constants;
    Alcotest.test_case "hash consing" `Quick check_hash_consing;
    Alcotest.test_case "boolean identities" `Quick check_boolean_identities;
    Alcotest.test_case "eval agrees" `Quick check_eval_agrees;
    Alcotest.test_case "restrict and exists" `Quick check_restrict_and_exists;
    Alcotest.test_case "sat count" `Quick check_sat_count;
    Alcotest.test_case "probability" `Quick check_probability;
    Alcotest.test_case "any_sat" `Quick check_any_sat;
    Alcotest.test_case "size" `Quick check_size;
    QCheck_alcotest.to_alcotest prop_random_formula_semantics;
    Alcotest.test_case "circuit functions" `Quick check_circuit_functions;
    Alcotest.test_case "exact probabilities" `Quick
      check_exact_probabilities_vs_sampling;
    Alcotest.test_case "exact leakage" `Quick check_exact_leakage_vs_exhaustive;
    Alcotest.test_case "mapper equivalence" `Quick check_equivalence_mapper;
    Alcotest.test_case "reorder equivalence" `Quick check_equivalence_reorder;
    Alcotest.test_case "detects inequivalence" `Quick
      check_equivalence_detects_difference;
    Alcotest.test_case "interface mismatch" `Quick check_interface_mismatch_rejected;
    Alcotest.test_case "independence error bounded" `Quick
      check_observability_independence_error;
  ]
