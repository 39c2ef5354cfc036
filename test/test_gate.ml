(* Gate kinds: arity rules, controlling values, three-/two-/five-valued
   evaluation consistency. *)

open Netlist

let logic = Alcotest.testable Logic.pp Logic.equal

let logic_kinds =
  Gate.[ Buf; Not; And; Nand; Or; Nor; Xor; Xnor ]

let check_string_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.check Alcotest.string "names" (Gate.to_string k)
        (Gate.to_string (Gate.of_string (Gate.to_string k))))
    (Gate.[ Input; Dff; Output ] @ logic_kinds);
  Alcotest.check Alcotest.bool "inv alias" true
    (Gate.equal_kind (Gate.of_string "inv") Gate.Not);
  Alcotest.check Alcotest.bool "buff alias" true
    (Gate.equal_kind (Gate.of_string "BUFF") Gate.Buf)

let check_controlling_values () =
  Alcotest.check (Alcotest.option logic) "and" (Some Logic.Zero)
    (Gate.controlling_value Gate.And);
  Alcotest.check (Alcotest.option logic) "nand" (Some Logic.Zero)
    (Gate.controlling_value Gate.Nand);
  Alcotest.check (Alcotest.option logic) "or" (Some Logic.One)
    (Gate.controlling_value Gate.Or);
  Alcotest.check (Alcotest.option logic) "nor" (Some Logic.One)
    (Gate.controlling_value Gate.Nor);
  Alcotest.check (Alcotest.option logic) "xor" None
    (Gate.controlling_value Gate.Xor)

let check_controlled_responses () =
  Alcotest.check (Alcotest.option logic) "nand" (Some Logic.One)
    (Gate.controlled_response Gate.Nand);
  Alcotest.check (Alcotest.option logic) "nor" (Some Logic.Zero)
    (Gate.controlled_response Gate.Nor)

let check_inversion_parity () =
  Alcotest.check Alcotest.bool "nand inverts" true (Gate.inversion Gate.Nand);
  Alcotest.check Alcotest.bool "and does not" false (Gate.inversion Gate.And);
  Alcotest.check Alcotest.bool "xnor inverts" true (Gate.inversion Gate.Xnor)

let check_arity_enforcement () =
  Alcotest.check_raises "nand arity 1"
    (Invalid_argument "Gate.eval: NAND with 1 inputs") (fun () ->
      ignore (Gate.eval Gate.Nand [| Logic.One |]));
  Alcotest.check_raises "not arity 2"
    (Invalid_argument "Gate.eval: NOT with 2 inputs") (fun () ->
      ignore (Gate.eval Gate.Not [| Logic.One; Logic.Zero |]))

let check_known_evaluations () =
  Alcotest.check logic "nand(1,1)" Logic.Zero
    (Gate.eval Gate.Nand [| Logic.One; Logic.One |]);
  Alcotest.check logic "nand(0,X)" Logic.One
    (Gate.eval Gate.Nand [| Logic.Zero; Logic.X |]);
  Alcotest.check logic "nor(X,1)" Logic.Zero
    (Gate.eval Gate.Nor [| Logic.X; Logic.One |]);
  Alcotest.check logic "nor(0,0,0)" Logic.One
    (Gate.eval Gate.Nor [| Logic.Zero; Logic.Zero; Logic.Zero |]);
  Alcotest.check logic "xor(1,1,1)" Logic.One
    (Gate.eval Gate.Xor [| Logic.One; Logic.One; Logic.One |]);
  Alcotest.check logic "xnor(1,0)" Logic.Zero
    (Gate.eval Gate.Xnor [| Logic.One; Logic.Zero |])

(* eval_bool must agree with eval on definite inputs; eval_five must
   agree on its good and faulty rails. *)
let gen_kind_and_inputs =
  let open QCheck.Gen in
  let kind = oneofl logic_kinds in
  let pair_gen =
    kind >>= fun k ->
    let n =
      match Gate.max_fanin k with
      | Some 1 -> pure 1
      | Some _ | None -> int_range 2 4
    in
    n >>= fun n ->
    array_size (pure n) bool >|= fun inputs -> (k, inputs)
  in
  QCheck.make pair_gen

let prop_bool_matches_ternary =
  QCheck.Test.make ~name:"eval_bool agrees with eval" ~count:500
    gen_kind_and_inputs (fun (k, inputs) ->
      let t = Gate.eval k (Array.map Logic.of_bool inputs) in
      Logic.equal t (Logic.of_bool (Gate.eval_bool k inputs)))

let prop_five_good_rail =
  QCheck.Test.make ~name:"eval_five good rail agrees with eval" ~count:500
    gen_kind_and_inputs (fun (k, inputs) ->
      let fv =
        Gate.eval_five k
          (Array.map (fun b -> if b then Logic.Five.F1 else Logic.Five.F0) inputs)
      in
      Logic.equal (Logic.Five.good fv) (Logic.of_bool (Gate.eval_bool k inputs)))

let prop_x_monotone =
  (* replacing an input by X can only keep the output or turn it X *)
  QCheck.Test.make ~name:"X-monotonicity" ~count:500 gen_kind_and_inputs
    (fun (k, inputs) ->
      let full = Gate.eval k (Array.map Logic.of_bool inputs) in
      let n = Array.length inputs in
      let ok = ref true in
      for i = 0 to n - 1 do
        let weakened = Array.map Logic.of_bool inputs in
        weakened.(i) <- Logic.X;
        let v = Gate.eval k weakened in
        if not (Logic.equal v full || Logic.equal v Logic.X) then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "string roundtrip" `Quick check_string_roundtrip;
    Alcotest.test_case "controlling values" `Quick check_controlling_values;
    Alcotest.test_case "controlled responses" `Quick check_controlled_responses;
    Alcotest.test_case "inversion parity" `Quick check_inversion_parity;
    Alcotest.test_case "arity enforcement" `Quick check_arity_enforcement;
    Alcotest.test_case "known evaluations" `Quick check_known_evaluations;
    QCheck_alcotest.to_alcotest prop_bool_matches_ternary;
    QCheck_alcotest.to_alcotest prop_five_good_rail;
    QCheck_alcotest.to_alcotest prop_x_monotone;
  ]
