(* Three- and five-valued logic algebra. *)

open Netlist

let logic = Alcotest.testable Logic.pp Logic.equal

let five = Alcotest.testable Logic.Five.pp Logic.Five.equal

let all3 = [ Logic.Zero; Logic.One; Logic.X ]

let check_not () =
  Alcotest.check logic "not 0" Logic.One (Logic.lnot Logic.Zero);
  Alcotest.check logic "not 1" Logic.Zero (Logic.lnot Logic.One);
  Alcotest.check logic "not X" Logic.X (Logic.lnot Logic.X)

let check_and_table () =
  let ( &&& ) = Logic.( &&& ) in
  Alcotest.check logic "0&&&X" Logic.Zero (Logic.Zero &&& Logic.X);
  Alcotest.check logic "X&&&0" Logic.Zero (Logic.X &&& Logic.Zero);
  Alcotest.check logic "1&&&1" Logic.One (Logic.One &&& Logic.One);
  Alcotest.check logic "1&&&X" Logic.X (Logic.One &&& Logic.X);
  Alcotest.check logic "X&&&X" Logic.X (Logic.X &&& Logic.X)

let check_or_table () =
  let ( ||| ) = Logic.( ||| ) in
  Alcotest.check logic "1|||X" Logic.One (Logic.One ||| Logic.X);
  Alcotest.check logic "X|||1" Logic.One (Logic.X ||| Logic.One);
  Alcotest.check logic "0|||0" Logic.Zero (Logic.Zero ||| Logic.Zero);
  Alcotest.check logic "0|||X" Logic.X (Logic.Zero ||| Logic.X)

let check_xor_table () =
  Alcotest.check logic "0 xor 1" Logic.One (Logic.xor Logic.Zero Logic.One);
  Alcotest.check logic "1 xor 1" Logic.Zero (Logic.xor Logic.One Logic.One);
  Alcotest.check logic "X xor 0" Logic.X (Logic.xor Logic.X Logic.Zero);
  Alcotest.check logic "1 xor X" Logic.X (Logic.xor Logic.One Logic.X)

let check_char_roundtrip () =
  List.iter
    (fun v -> Alcotest.check logic "roundtrip" v (Logic.of_char (Logic.to_char v)))
    all3;
  Alcotest.check_raises "bad char" (Invalid_argument "Logic.of_char: '2'")
    (fun () -> ignore (Logic.of_char '2'))

let check_bool_conversions () =
  Alcotest.check logic "of_bool true" Logic.One (Logic.of_bool true);
  Alcotest.check (Alcotest.option Alcotest.bool) "to_bool X" None
    (Logic.to_bool Logic.X);
  Alcotest.check (Alcotest.option Alcotest.bool) "to_bool 0" (Some false)
    (Logic.to_bool Logic.Zero)

(* Five-valued: D carries good=1/faulty=0; operations must agree with
   applying the ternary operation to both rails independently, up to
   the conservative approximation the five-valued domain forces (a
   mixed pair like good=X/faulty=0 is not representable and collapses
   to X on both rails). *)
let all5 = Logic.Five.[ F0; F1; FX; D; Dbar ]

let rails_ok ~exact ~actual other_exact =
  (* exact result if representable, X otherwise *)
  if Logic.equal exact Logic.X || Logic.equal other_exact Logic.X then
    Logic.equal actual Logic.X || Logic.equal actual exact
  else Logic.equal actual exact

let check_five_rails () =
  let module F = Logic.Five in
  let check name op top =
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            let r = op a b in
            let good_exact = top (F.good a) (F.good b) in
            let faulty_exact = top (F.faulty a) (F.faulty b) in
            Alcotest.(check bool)
              (name ^ " good rail")
              true
              (rails_ok ~exact:good_exact ~actual:(F.good r) faulty_exact);
            Alcotest.(check bool)
              (name ^ " faulty rail")
              true
              (rails_ok ~exact:faulty_exact ~actual:(F.faulty r) good_exact))
          all5)
      all5
  in
  check "and" F.land_ Logic.( &&& );
  check "or" F.lor_ Logic.( ||| );
  check "xor" F.lxor_ Logic.xor

let check_five_exact_on_definite () =
  (* with no X anywhere the rails must be exact *)
  let module F = Logic.Five in
  let definite = F.[ F0; F1; D; Dbar ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.check logic "and good exact"
            Logic.(F.good a &&& F.good b)
            (F.good (F.land_ a b));
          Alcotest.check logic "and faulty exact"
            Logic.(F.faulty a &&& F.faulty b)
            (F.faulty (F.land_ a b));
          Alcotest.check logic "xor faulty exact"
            (Logic.xor (F.faulty a) (F.faulty b))
            (F.faulty (F.lxor_ a b)))
        definite)
    definite

let check_five_not () =
  let module F = Logic.Five in
  Alcotest.check five "not D" F.Dbar (F.lnot F.D);
  Alcotest.check five "not D'" F.D (F.lnot F.Dbar);
  Alcotest.check five "not X" F.FX (F.lnot F.FX)

let check_five_make () =
  let module F = Logic.Five in
  Alcotest.check five "1/0 = D" F.D (F.make ~good:Logic.One ~faulty:Logic.Zero);
  Alcotest.check five "0/1 = D'" F.Dbar (F.make ~good:Logic.Zero ~faulty:Logic.One);
  Alcotest.check five "X/0 = X" F.FX (F.make ~good:Logic.X ~faulty:Logic.Zero)

(* Properties: associativity/commutativity of the ternary operators. *)
let gen3 = QCheck.make (QCheck.Gen.oneofl all3)

let prop_and_commutative =
  QCheck.Test.make ~name:"ternary and commutative" ~count:200
    (QCheck.pair gen3 gen3) (fun (a, b) ->
      Logic.equal Logic.(a &&& b) Logic.(b &&& a))

let prop_or_associative =
  QCheck.Test.make ~name:"ternary or associative" ~count:200
    (QCheck.triple gen3 gen3 gen3) (fun (a, b, c) ->
      Logic.equal Logic.(a ||| (b ||| c)) Logic.((a ||| b) ||| c))

let prop_de_morgan =
  QCheck.Test.make ~name:"ternary De Morgan" ~count:200 (QCheck.pair gen3 gen3)
    (fun (a, b) ->
      Logic.equal (Logic.lnot Logic.(a &&& b))
        Logic.(Logic.lnot a ||| Logic.lnot b))

let prop_xor_self =
  QCheck.Test.make ~name:"x xor x is 0 or X" ~count:50 gen3 (fun a ->
      match a with
      | Logic.X -> Logic.equal (Logic.xor a a) Logic.X
      | Logic.Zero | Logic.One -> Logic.equal (Logic.xor a a) Logic.Zero)

let suite =
  [
    Alcotest.test_case "negation" `Quick check_not;
    Alcotest.test_case "conjunction table" `Quick check_and_table;
    Alcotest.test_case "disjunction table" `Quick check_or_table;
    Alcotest.test_case "xor table" `Quick check_xor_table;
    Alcotest.test_case "char roundtrip" `Quick check_char_roundtrip;
    Alcotest.test_case "bool conversions" `Quick check_bool_conversions;
    Alcotest.test_case "five-valued rails" `Quick check_five_rails;
    Alcotest.test_case "five-valued exact on definite" `Quick
      check_five_exact_on_definite;
    Alcotest.test_case "five-valued negation" `Quick check_five_not;
    Alcotest.test_case "five-valued make" `Quick check_five_make;
    QCheck_alcotest.to_alcotest prop_and_commutative;
    QCheck_alcotest.to_alcotest prop_or_associative;
    QCheck_alcotest.to_alcotest prop_de_morgan;
    QCheck_alcotest.to_alcotest prop_xor_self;
  ]
