(* ISCAS89 .bench parser and writer. *)

open Netlist

let check_parse_s27 () =
  let c = Bench_parser.parse_string ~name:"s27" Circuits.s27_bench_text in
  let s = Circuit.stats c in
  Alcotest.(check int) "inputs" 4 s.Circuit.n_inputs;
  Alcotest.(check int) "outputs" 1 s.Circuit.n_outputs;
  Alcotest.(check int) "dffs" 3 s.Circuit.n_dffs;
  Alcotest.(check int) "gates" 10 s.Circuit.n_gates

let check_comments_and_blank_lines () =
  let text = "# header\n\nINPUT(a)\n  # indented comment\nOUTPUT(a)\n" in
  let c = Bench_parser.parse_string text in
  Alcotest.(check int) "one input" 1 (Array.length (Circuit.inputs c))

let check_case_insensitive_keywords () =
  let text = "input(a)\ninput(b)\noutput(y)\ny = nand(a, b)\n" in
  let c = Bench_parser.parse_string text in
  Alcotest.(check int) "gate parsed" 1 (Circuit.gate_count c)

let check_forward_references () =
  (* y uses z before z is defined *)
  let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(z)\nz = NOT(a)\n" in
  let c = Bench_parser.parse_string text in
  Alcotest.(check int) "two gates" 2 (Circuit.gate_count c)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  needle = "" || go 0

module E = Scanpower_errors

let expect_error ?(substring = "") text () =
  match Bench_parser.parse_string text with
  | exception E.Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "message %S contains %S" e.E.message substring)
      true
      (contains ~needle:substring e.E.message);
    e
  | _ -> Alcotest.fail "expected Scanpower_errors.Error"

let expect_parse_error ?substring text () = ignore (expect_error ?substring text ())

let check_undefined_signal =
  expect_parse_error ~substring:"undefined" "INPUT(a)\ny = NOT(zz)\nOUTPUT(y)\n"

let check_double_definition =
  expect_parse_error ~substring:"driven again" "INPUT(a)\na = NOT(a)\nOUTPUT(a)\n"

let check_unknown_gate =
  expect_parse_error ~substring:"unknown gate" "INPUT(a)\ny = FOO(a)\nOUTPUT(y)\n"

let check_bad_arity =
  expect_parse_error ~substring:"input(s)" "INPUT(a)\ny = NAND(a)\nOUTPUT(y)\n"

(* ---- structured-error satellites: location + token + exit class ---- *)

let check_truncated_file_location () =
  let e = expect_error ~substring:"truncated" "INPUT(a)\nOUTPUT(y)\ny = NAND(a\n" () in
  Alcotest.(check string) "code" "parse" (E.code_to_string e.E.code);
  Alcotest.(check int) "exit code" 3 (E.exit_code e.E.code);
  (match e.E.loc with
  | Some l -> Alcotest.(check int) "line" 3 l.E.line
  | None -> Alcotest.fail "expected a location");
  Alcotest.(check (option string)) "token" (Some "NAND(a") e.E.token

let check_bad_arity_location () =
  let e = expect_error "INPUT(a)\ny = NAND(a)\nOUTPUT(y)\n" () in
  Alcotest.(check string) "code" "validation" (E.code_to_string e.E.code);
  (match e.E.loc with
  | Some l -> Alcotest.(check int) "line" 2 l.E.line
  | None -> Alcotest.fail "expected a location");
  Alcotest.(check (option string)) "token names the net" (Some "y") e.E.token

let check_unknown_gate_token () =
  let e = expect_error "INPUT(a)\ny = FOO(a)\nOUTPUT(y)\n" () in
  Alcotest.(check (option string)) "token" (Some "y") e.E.token;
  Alcotest.(check bool)
    "message names the opcode" true
    (contains ~needle:"FOO" e.E.message)

let check_self_loop_rejected () =
  let e = expect_error ~substring:"combinational loop"
      "INPUT(a)\ny = NAND(a, y)\nOUTPUT(y)\n" ()
  in
  Alcotest.(check bool)
    "cycle names the net" true
    (contains ~needle:"y -> y" e.E.message)

let check_all_diagnostics_reported () =
  (* two independent problems in one file: the single raised error must
     carry both, not just the first *)
  let e =
    expect_error "INPUT(a)\ny = NAND(a)\nz = FOO(a)\nOUTPUT(y)\nOUTPUT(z)\n" ()
  in
  Alcotest.(check bool) "arity reported" true (contains ~needle:"NAND" e.E.message);
  Alcotest.(check bool) "opcode reported" true (contains ~needle:"FOO" e.E.message)

let check_parse_file_missing () =
  match Bench_parser.parse_file "/nonexistent/no_such.bench" with
  | exception E.Error e ->
    Alcotest.(check string) "code" "io" (E.code_to_string e.E.code);
    Alcotest.(check int) "exit code" 4 (E.exit_code e.E.code)
  | _ -> Alcotest.fail "expected an io error"

let check_lint_does_not_raise () =
  let diags = Bench_parser.lint "INPUT(a\ny = NAND(a)\nz = z2\n" in
  Alcotest.(check bool) "several diagnostics" true (List.length diags >= 2);
  Alcotest.(check bool)
    "has a syntax diagnostic" true
    (List.exists (fun d -> d.Validate.check = "syntax") diags)

let check_roundtrip () =
  let c = Circuits.s27 () in
  let text = Bench_writer.to_string c in
  let c' = Bench_parser.parse_string ~name:"s27" text in
  let s = Circuit.stats c and s' = Circuit.stats c' in
  Alcotest.(check bool) "same stats" true (s = s');
  (* functional equivalence on a few vectors *)
  let sim = Seq_sim.create c and sim' = Seq_sim.create c' in
  let rng = Util.Rng.create 5 in
  for _ = 1 to 20 do
    let v = Util.Rng.bool_array rng 4 in
    Alcotest.(check (array bool))
      "outputs equal"
      (Seq_sim.step sim v)
      (Seq_sim.step sim' v)
  done

(* Node-by-node circuit equality up to node numbering: same source /
   output name sets, and for every node the same kind and the same
   fanin names in the same order. *)
let check_structurally_equal c c' =
  let name_of cc id = (Circuit.node cc id).Circuit.name in
  let names cc ids = Array.to_list ids |> List.map (name_of cc) in
  Alcotest.(check (list string))
    "inputs" (names c (Circuit.inputs c)) (names c' (Circuit.inputs c'));
  Alcotest.(check (list string))
    "outputs" (names c (Circuit.outputs c)) (names c' (Circuit.outputs c'));
  Alcotest.(check (list string))
    "dffs" (names c (Circuit.dffs c)) (names c' (Circuit.dffs c'));
  Array.iter
    (fun nd ->
      let id' = Circuit.find c' nd.Circuit.name in
      let nd' = Circuit.node c' id' in
      Alcotest.(check bool)
        (nd.Circuit.name ^ " same kind")
        true
        (Gate.equal_kind nd.Circuit.kind nd'.Circuit.kind);
      Alcotest.(check (list string))
        (nd.Circuit.name ^ " same fanins")
        (Array.to_list nd.Circuit.fanins |> List.map (name_of c))
        (Array.to_list nd'.Circuit.fanins |> List.map (name_of c')))
    (Circuit.nodes c)

(* the satellite round-trip: the embedded s27 text itself, through the
   writer and back, must reproduce the circuit node for node *)
let check_roundtrip_structural () =
  let c = Bench_parser.parse_string ~name:"s27" Circuits.s27_bench_text in
  let c' = Bench_parser.parse_string ~name:"s27" (Bench_writer.to_string c) in
  check_structurally_equal c c'

let check_truncated_line =
  expect_parse_error "INPUT(a)\nOUTPUT(y)\ny = NAND(a\n"

let check_roundtrip_generated () =
  let c =
    Circuits.generate
      { Circuits.name = "rt"; n_pi = 5; n_po = 3; n_ff = 4; n_gates = 40; seed = 7 }
  in
  let c' = Bench_parser.parse_string (Bench_writer.to_string c) in
  Alcotest.(check int) "gates" (Circuit.gate_count c) (Circuit.gate_count c');
  Alcotest.(check int)
    "dffs"
    (Array.length (Circuit.dffs c))
    (Array.length (Circuit.dffs c'))

let suite =
  [
    Alcotest.test_case "parse s27" `Quick check_parse_s27;
    Alcotest.test_case "comments and blanks" `Quick check_comments_and_blank_lines;
    Alcotest.test_case "case-insensitive keywords" `Quick
      check_case_insensitive_keywords;
    Alcotest.test_case "forward references" `Quick check_forward_references;
    Alcotest.test_case "undefined signal" `Quick check_undefined_signal;
    Alcotest.test_case "double definition" `Quick check_double_definition;
    Alcotest.test_case "unknown gate" `Quick check_unknown_gate;
    Alcotest.test_case "bad arity" `Quick check_bad_arity;
    Alcotest.test_case "writer/parser roundtrip (s27)" `Quick check_roundtrip;
    Alcotest.test_case "writer/parser roundtrip (structural)" `Quick
      check_roundtrip_structural;
    Alcotest.test_case "truncated line rejected" `Quick check_truncated_line;
    Alcotest.test_case "writer/parser roundtrip (generated)" `Quick
      check_roundtrip_generated;
    Alcotest.test_case "truncated file: line/col/token" `Quick
      check_truncated_file_location;
    Alcotest.test_case "bad arity: location + token" `Quick
      check_bad_arity_location;
    Alcotest.test_case "unknown gate: token" `Quick check_unknown_gate_token;
    Alcotest.test_case "self-loop rejected with cycle" `Quick
      check_self_loop_rejected;
    Alcotest.test_case "all diagnostics in one error" `Quick
      check_all_diagnostics_reported;
    Alcotest.test_case "missing file is an io error" `Quick
      check_parse_file_missing;
    Alcotest.test_case "lint collects without raising" `Quick
      check_lint_does_not_raise;
  ]
