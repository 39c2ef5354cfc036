(* The PODEM engine pinned cube-for-cube. The goldens were frozen from
   the previous Circuit.t engine after both engines returned equal
   results on every collapsed fault (SCOAP guide, 25 backtracks); any
   change to the search order, the backtrace costs or the five-valued
   algebra moves the digest. The implication screen moves faults only
   between the untestable and aborted counts, so those counts pin its
   rules while the digest shows it changed no cube. *)

(* Test / Untestable / Aborted counts over the collapsed faults, and the
   MD5 of every test cube (one [0]/[1]/[x] line each, fault order). *)
let fingerprint name =
  let c = Circuits.by_name name (* generated pre-mapped, as the flow runs it *) in
  let podem = Atpg.Podem.make ~guide:(Atpg.Scoap.compute c) c in
  let cubes = Buffer.create 4096 in
  let t = ref 0 and u = ref 0 and a = ref 0 in
  List.iter
    (fun f ->
      match Atpg.Podem.generate ~backtrack_limit:25 podem f with
      | Atpg.Podem.Test cube ->
        incr t;
        Array.iter (fun v -> Buffer.add_char cubes (Netlist.Logic.to_char v)) cube;
        Buffer.add_char cubes '\n'
      | Atpg.Podem.Untestable -> incr u
      | Atpg.Podem.Aborted -> incr a)
    (Atpg.Fault.collapsed_faults c);
  (!t, !u, !a, Digest.to_hex (Digest.string (Buffer.contents cubes)))

let golden name ~tests ~untestable ~aborted ~md5 () =
  let t, u, a, digest = fingerprint name in
  Alcotest.(check int) "tests" tests t;
  Alcotest.(check int) "untestable" untestable u;
  Alcotest.(check int) "aborted" aborted a;
  Alcotest.(check string) "cube digest" md5 digest

(* ---------- the gate tables ---------- *)

let five = Netlist.Logic.Five.[| F0; F1; FX; D; Dbar |]
let show vs = String.concat "," (Array.to_list (Array.map Netlist.Logic.Five.to_string vs))

(* [f kind vs] on every fanin tuple of every logic kind at every arity
   1..4 the kind allows; returns the number of tuples. *)
let iter_gate_tuples f =
  let rec pow5 n = if n = 0 then 1 else 5 * pow5 (n - 1) in
  let tuples = ref 0 in
  List.iter
    (fun kind ->
      let widest = Option.value (Netlist.Gate.max_fanin kind) ~default:4 in
      for n = Int.max 1 (Netlist.Gate.min_fanin kind) to Int.min widest 4 do
        for i = 0 to pow5 n - 1 do
          f kind (Array.init n (fun k -> five.(i / pow5 (n - 1 - k) mod 5)));
          incr tuples
        done
      done)
    Netlist.Gate.[ Output; Buf; Not; And; Nand; Or; Nor; Xor; Xnor ];
  !tuples

(* 3 one-input kinds x 5, and 6 kinds x (25 + 125 + 625) *)
let n_tuples = (3 * 5) + (6 * 775)

(* The table the search evaluates with gives what [Gate.eval_five]
   folds in fanin order. Five inputs and sources have no table. *)
let check_gate_tables () =
  let tuples =
    iter_gate_tuples (fun kind vs ->
        let want = Netlist.Gate.eval_five kind vs in
        match Atpg.Podem.gate_table kind vs with
        | Some got when Netlist.Logic.Five.equal got want -> ()
        | got ->
          Alcotest.failf "%s(%s): table %s, fold %s" (Netlist.Gate.to_string kind) (show vs)
            (Option.fold ~none:"none" ~some:Netlist.Logic.Five.to_string got)
            (Netlist.Logic.Five.to_string want))
  in
  Alcotest.(check int) "tuples" n_tuples tuples;
  let none kind vs =
    Alcotest.(check bool)
      (Netlist.Gate.to_string kind ^ " has no table")
      true
      (Atpg.Podem.gate_table kind vs = None)
  in
  none Netlist.Gate.And (Array.make 5 Netlist.Logic.Five.F1);
  none Netlist.Gate.Dff [| Netlist.Logic.Five.F1 |];
  none Netlist.Gate.Input [||]

(* Implication never evaluates a known node again, which is sound only
   if five-valued evaluation is monotone in X < known: refining any X
   input to one of the four known codes leaves a known output as it
   is. Checked on every gate table and on the pin-by-pin fold, at each
   X position of every tuple, and on the stuck-value injection
   [Five.make ~good:(Five.good v) ~faulty:s] that PODEM applies at a
   faulted pin or output, for both stuck values. *)
let check_five_monotone () =
  let open Netlist.Logic in
  let check name f vs =
    let out = f vs in
    if not (Five.equal out Five.FX) then
      Array.iteri
        (fun k v ->
          if Five.equal v Five.FX then
            List.iter
              (fun c ->
                let vs' = Array.copy vs in
                vs'.(k) <- c;
                let out' = f vs' in
                if not (Five.equal out out') then
                  Alcotest.failf "%s(%s) = %s but %s(%s) = %s" name (show vs)
                    (Five.to_string out) name (show vs') (Five.to_string out'))
              Five.[ F0; F1; D; Dbar ])
        vs
  in
  let tuples =
    iter_gate_tuples (fun kind vs ->
        let name = Netlist.Gate.to_string kind in
        check (name ^ " table")
          (fun vs -> Option.value (Atpg.Podem.gate_table kind vs) ~default:Five.FX)
          vs;
        check (name ^ " fold") (Netlist.Gate.eval_five kind) vs)
  in
  Alcotest.(check int) "tuples" n_tuples tuples;
  List.iter
    (fun stuck ->
      let inject vs = Five.make ~good:(Five.good vs.(0)) ~faulty:stuck in
      Array.iter (fun v -> check "inject" inject [| v |]) five)
    [ Zero; One ]

(* ---------- the implication screen ---------- *)

open Netlist

let refuted c =
  let screen = Atpg.Implication.make (Compiled.of_circuit c) in
  List.filter (Atpg.Implication.refutes screen) (Atpg.Fault.collapsed_faults c)

(* Soundness: no vector at all detects a refuted fault. Exhaustive, so
   only for circuits with few sources. Returns the number refuted. *)
let check_refuted_undetectable name c =
  let faults = refuted c in
  let vectors = Oracle.all_vectors (Array.length (Circuit.sources c)) in
  match Oracle.detected_by c ~faults ~vectors with
  | [] -> List.length faults
  | f :: _ ->
    Alcotest.failf "%s: %s refuted by implication, but a vector detects it" name
      (Atpg.Fault.to_string c f)

let check_redundant_or () =
  (* g = OR(a, NOT a) is constantly 1: activating g s-a-1 needs a = 0
     and NOT a = 0 at once, a contradiction with no search; g s-a-0 is
     tested by any vector and must survive the screen *)
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.add_input b "a" in
  let na = Circuit.Builder.add_gate b Gate.Not "na" [ a ] in
  let g = Circuit.Builder.add_gate b Gate.Or "g" [ a; na ] in
  let h = Circuit.Builder.add_gate b Gate.Not "h" [ g ] in
  let _ = Circuit.Builder.add_output b "po" h in
  let c = Circuit.Builder.build b in
  let screen = Atpg.Implication.make (Compiled.of_circuit c) in
  let fault stuck = { Atpg.Fault.site = Atpg.Fault.Output_line g; stuck } in
  Alcotest.(check bool) "g s-a-1 refuted" true
    (Atpg.Implication.refutes screen (fault true));
  Alcotest.(check bool) "g s-a-0 survives" false
    (Atpg.Implication.refutes screen (fault false));
  (* the refutation is undone: asking again gives the same answers *)
  Alcotest.(check bool) "g s-a-1 refuted again" true
    (Atpg.Implication.refutes screen (fault true))

(* ---------- the learned constant lines ---------- *)

(* Every learned constant is the value each source vector gives its
   node, by exhaustive good simulation. Returns the number learned. *)
let check_constants_hold name c =
  let cc = Compiled.of_circuit c in
  let screen = Atpg.Implication.make cc in
  let sources = Circuit.sources c in
  let values = Array.make (Compiled.node_count cc) false in
  List.iter
    (fun v ->
      Array.iteri (fun i id -> values.(id) <- v.(i)) sources;
      Array.iter
        (fun id ->
          values.(id) <- Compiled.eval_bool cc values id;
          match Logic.to_bool (Atpg.Implication.constant screen id) with
          | Some k when k <> values.(id) ->
            Alcotest.failf "%s: %s learned constant %b, but a vector gives %b" name
              (Circuit.node c id).Circuit.name k values.(id)
          | _ -> ())
        (Compiled.eval_order cc))
    (Oracle.all_vectors (Array.length sources));
  Atpg.Implication.constants screen

(* g = OR(a, NOT a) is 1 under both values of a, and so h = NOT g and
   its output marker are 0. Beside it, rare = AND of twelve other
   inputs is 1 on one vector in 4096, which the learner's random
   filter is unlikely to see: its probe for 1 implies no contradiction,
   so it is not learned, however seldom it is 1. *)
let check_learned_or () =
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.add_input b "a" in
  let na = Circuit.Builder.add_gate b Gate.Not "na" [ a ] in
  let g = Circuit.Builder.add_gate b Gate.Or "g" [ a; na ] in
  let h = Circuit.Builder.add_gate b Gate.Not "h" [ g ] in
  let _ = Circuit.Builder.add_output b "po" h in
  let inputs =
    List.init 12 (fun i -> Circuit.Builder.add_input b (Printf.sprintf "i%d" i))
  in
  let quad k = List.filteri (fun i _ -> i / 4 = k) inputs in
  let ands =
    List.init 3 (fun k ->
        Circuit.Builder.add_gate b Gate.And (Printf.sprintf "q%d" k) (quad k))
  in
  let rare = Circuit.Builder.add_gate b Gate.And "rare" ands in
  let _ = Circuit.Builder.add_output b "po2" rare in
  let c = Circuit.Builder.build b in
  let screen = Atpg.Implication.make (Compiled.of_circuit c) in
  let value id = Logic.to_char (Atpg.Implication.constant screen id) in
  Alcotest.(check char) "g" '1' (value g);
  Alcotest.(check char) "h" '0' (value h);
  Alcotest.(check char) "na is free" 'x' (value na);
  Alcotest.(check char) "rare is free" 'x' (value rare);
  Alcotest.(check int) "constants" 3 (check_constants_hold "or" c)

let check_constants_hold_s27 () =
  ignore (check_constants_hold "s27" (Circuits.s27 ()));
  ignore (check_constants_hold "s27 mapped" (Techmap.Mapper.map (Circuits.s27 ())))

(* Every gate kind, including the XOR family and buffers the mapped
   benchmarks lack, with reconvergent fanout that makes some faults
   redundant: OR(XOR(a, b), XNOR(a, b)) is constantly 1, and so is
   k = NAND(BUF(y), NOT BUF(y)). Probing learns only k: refuting
   one = 0 takes a case split on a, which implication never makes. *)
let check_all_kinds_sound () =
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.add_input b "a" in
  let b_ = Circuit.Builder.add_input b "b" in
  let c_ = Circuit.Builder.add_input b "c" in
  let y = Circuit.Builder.add_gate b Gate.Xor "y" [ a; b_ ] in
  let yn = Circuit.Builder.add_gate b Gate.Xnor "yn" [ a; b_ ] in
  let one = Circuit.Builder.add_gate b Gate.Or "one" [ y; yn ] in
  let m = Circuit.Builder.add_gate b Gate.And "m" [ one; c_ ] in
  let bf = Circuit.Builder.add_gate b Gate.Buf "bf" [ y ] in
  let n = Circuit.Builder.add_gate b Gate.Nand "n" [ bf; m; a ] in
  let r = Circuit.Builder.add_gate b Gate.Nor "r" [ n; yn ] in
  let nb = Circuit.Builder.add_gate b Gate.Not "nb" [ bf ] in
  let k = Circuit.Builder.add_gate b Gate.Nand "k" [ bf; nb ] in
  let kc = Circuit.Builder.add_gate b Gate.Xnor "kc" [ k; c_ ] in
  let _ = Circuit.Builder.add_output b "o1" r in
  let _ = Circuit.Builder.add_output b "o2" m in
  let _ = Circuit.Builder.add_output b "o3" kc in
  let c = Circuit.Builder.build b in
  let n_refuted = check_refuted_undetectable "all-kinds" c in
  Alcotest.(check bool) "refutes something" true (n_refuted > 0);
  Alcotest.(check bool) "learns a constant" true
    (check_constants_hold "all-kinds" c > 0)

let check_s27_sound () =
  ignore (check_refuted_undetectable "s27" (Circuits.s27 ()));
  ignore
    (check_refuted_undetectable "s27 mapped" (Techmap.Mapper.map (Circuits.s27 ())))

(* A random generated circuit with 2..6 primary inputs and 1..[max_ff]
   flip-flops, so few sources that every vector can be simulated. *)
let small_circuit prefix ~max_ff (seed, n_gates) =
  let name = Printf.sprintf "%s%d" prefix seed in
  let profile =
    {
      Circuits.name;
      n_pi = 2 + (seed mod 5);
      n_po = 2;
      n_ff = 1 + (seed mod max_ff);
      n_gates;
      seed;
    }
  in
  (name, Circuits.generate profile)

let seed_and_size = QCheck.make QCheck.Gen.(pair (int_range 0 10000) (int_range 10 80))

let prop_refuted_undetectable =
  QCheck.Test.make ~name:"refuted faults are detected by no vector" ~count:25
    seed_and_size (fun p ->
      let name, c = small_circuit "iprop" ~max_ff:7 p in
      ignore (check_refuted_undetectable name c);
      true)

let prop_constants_hold =
  QCheck.Test.make ~name:"learned constants hold under every vector" ~count:25
    seed_and_size (fun p ->
      let name, c = small_circuit "cprop" ~max_ff:7 p in
      ignore (check_constants_hold name c);
      true)

(* The search alone is sound on random circuits small enough to
   enumerate: every cube it returns detects its fault however the X
   positions are filled (checked all-0 and all-1), and a fault it calls
   [Untestable] is one it proved by exhausting the assignments, which
   no vector detects. The backtrack limit is high enough that the
   search on these circuits proves rather than aborts. *)
let prop_search_sound =
  QCheck.Test.make ~name:"search tests detect and search-untestable is undetectable"
    ~count:25 seed_and_size (fun p ->
      let name, c = small_circuit "sprop" ~max_ff:6 p in
      let podem = Atpg.Podem.make ~guide:(Atpg.Scoap.compute c) c in
      let untestable = ref [] in
      List.iter
        (fun f ->
          match Atpg.Podem.search ~backtrack_limit:10_000 podem f with
          | Atpg.Podem.Test cube ->
            List.iter
              (fun fill ->
                let v = Array.map (fun x -> Option.value (Logic.to_bool x) ~default:fill) cube in
                if Oracle.detected_by c ~faults:[ f ] ~vectors:[ v ] = [] then
                  Alcotest.failf "%s: the cube for %s filled with %b does not detect it"
                    name (Atpg.Fault.to_string c f) fill)
              [ false; true ]
          | Atpg.Podem.Untestable -> untestable := f :: !untestable
          | Atpg.Podem.Aborted -> ())
        (Atpg.Fault.collapsed_faults c);
      let vectors = Oracle.all_vectors (Array.length (Circuit.sources c)) in
      (match Oracle.detected_by c ~faults:!untestable ~vectors with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "%s: search proves %s untestable, but a vector detects it" name
          (Atpg.Fault.to_string c f));
      true)

(* Mapped s344 has too many sources to enumerate, so its [Untestable]
   verdicts, screen and search together at the flow's backtrack limit,
   are checked against 4096 seeded random vectors instead: none of
   them may detect a fault PODEM proves untestable. *)
let check_s344_untestable_undetected () =
  let c = Techmap.Mapper.map (Circuits.by_name "s344") in
  let podem = Atpg.Podem.make ~guide:(Atpg.Scoap.compute c) c in
  let untestable =
    List.filter
      (fun f ->
        match Atpg.Podem.generate ~backtrack_limit:25 podem f with
        | Atpg.Podem.Untestable -> true
        | Atpg.Podem.Test _ | Atpg.Podem.Aborted -> false)
      (Atpg.Fault.collapsed_faults c)
  in
  Alcotest.(check bool) "proves faults untestable" true (List.length untestable > 100);
  let vectors = Atpg.Pattern_gen.random_vectors ~seed:7 ~count:4096 c in
  match Oracle.detected_by c ~faults:untestable ~vectors with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "s344: PODEM proves %s untestable, but a random vector detects it"
      (Atpg.Fault.to_string c f)

(* On the ten circuits of the flow-cold benchmark, the search alone,
   as the flow configures it, never finds a test for a refuted fault. *)
let check_flow_circuits_no_refuted_test () =
  List.iter
    (fun p ->
      let c = Circuits.by_name p.Circuits.name in
      let podem = Atpg.Podem.make ~guide:(Atpg.Scoap.compute c) c in
      List.iter
        (fun f ->
          match Atpg.Podem.search ~backtrack_limit:25 podem f with
          | Atpg.Podem.Test _ ->
            Alcotest.failf "%s: PODEM tests %s, which implication refutes"
              p.Circuits.name (Atpg.Fault.to_string c f)
          | Atpg.Podem.Untestable | Atpg.Podem.Aborted -> ())
        (refuted c))
    (List.filteri (fun i _ -> i < 10) Circuits.table1_profiles)

(* The constant lines of the ten flow-cold circuits, as the flow
   builds them. Probing every gate for both values until nothing
   changes finds exactly these, so the total pins the learner's
   reach. *)
let check_flow_circuits_constants () =
  let total =
    List.fold_left
      (fun acc p ->
        let c = Circuits.by_name p.Circuits.name in
        acc + Atpg.Implication.constants (Atpg.Implication.make (Compiled.of_circuit c)))
      0
      (List.filteri (fun i _ -> i < 10) Circuits.table1_profiles)
  in
  Alcotest.(check int) "constant gates" 1190 total

let suite =
  [
    Alcotest.test_case "golden s344" `Quick
      (golden "s344" ~tests:345 ~untestable:186 ~aborted:16
         ~md5:"11eae8de14ae9ac7bc62d4ae157a6007");
    Alcotest.test_case "golden s713" `Quick
      (golden "s713" ~tests:815 ~untestable:363 ~aborted:235
         ~md5:"e66b4ec077a017f45b94778139c3b85a");
    (* the larger two hold most backtrack-limit aborts: s1196's 364
       walk the flip/undo path of the search hardest *)
    Alcotest.test_case "golden s1196" `Quick
      (golden "s1196" ~tests:671 ~untestable:838 ~aborted:364
         ~md5:"7994552b585ccaef17cf1f7c06c73332");
    Alcotest.test_case "golden s1494" `Quick
      (golden "s1494" ~tests:288 ~untestable:1886 ~aborted:52
         ~md5:"c7b7925d3b61d402a82932b7354f0160");
    Alcotest.test_case "gate tables equal the five-valued fold" `Quick check_gate_tables;
    Alcotest.test_case "five-valued evaluation is monotone in X" `Quick
      check_five_monotone;
    Alcotest.test_case "implication refutes a redundant OR" `Quick
      check_redundant_or;
    Alcotest.test_case "implication sound on every gate kind" `Quick
      check_all_kinds_sound;
    Alcotest.test_case "implication sound on s27" `Quick check_s27_sound;
    Alcotest.test_case "OR(a, NOT a) is learned constant 1" `Quick check_learned_or;
    Alcotest.test_case "learned constants hold on s27" `Quick check_constants_hold_s27;
    QCheck_alcotest.to_alcotest prop_constants_hold;
    Alcotest.test_case "flow-cold circuits learn 1190 constants" `Quick
      check_flow_circuits_constants;
    QCheck_alcotest.to_alcotest prop_refuted_undetectable;
    QCheck_alcotest.to_alcotest prop_search_sound;
    Alcotest.test_case "s344 untestable escapes 4096 random vectors" `Quick
      check_s344_untestable_undetected;
    Alcotest.test_case "no PODEM test for a refuted fault" `Slow
      check_flow_circuits_no_refuted_test;
  ]
