(* Benchmark registry and the ISCAS89-profile circuit generator. *)

open Netlist

let check_registry () =
  Alcotest.(check int) "15 benchmarks" 15 (List.length Circuits.names);
  Alcotest.(check bool) "s27 first" true (List.hd Circuits.names = "s27");
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "scale profile %s registered" p.Circuits.name)
        true
        (List.mem p.Circuits.name Circuits.names))
    Circuits.scale_profiles;
  List.iter
    (fun name ->
      let c = Circuits.by_name name in
      Alcotest.(check string) "name matches" name (Circuit.name c))
    Circuits.names;
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Circuits.by_name "s9999"))

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  needle = "" || go 0

let check_find () =
  (match Circuits.find "s382" with
  | Ok c -> Alcotest.(check string) "found" "s382" (Circuit.name c)
  | Error e -> Alcotest.fail e);
  match Circuits.find "s9999" with
  | Ok _ -> Alcotest.fail "s9999 should not resolve"
  | Error msg ->
    (* the error must name the offender and list every valid choice *)
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "error mentions %s" needle)
          true
          (contains ~needle msg))
      ("s9999" :: Circuits.names)

let check_profiles_respected () =
  List.iter
    (fun p ->
      let c = Circuits.generate p in
      let s = Circuit.stats c in
      Alcotest.(check int) (p.Circuits.name ^ " inputs") p.Circuits.n_pi
        s.Circuit.n_inputs;
      Alcotest.(check int) (p.Circuits.name ^ " outputs") p.Circuits.n_po
        s.Circuit.n_outputs;
      Alcotest.(check int) (p.Circuits.name ^ " dffs") p.Circuits.n_ff
        s.Circuit.n_dffs;
      Alcotest.(check int) (p.Circuits.name ^ " gates") p.Circuits.n_gates
        s.Circuit.n_gates)
    Circuits.table1_profiles

(* [scanpower list] reads its columns off the profiles; they must be
   what the generated netlists have *)
let check_list_columns () =
  List.iter
    (fun name ->
      let s = Circuit.stats (Circuits.by_name name) in
      Alcotest.(check (list (pair string int)))
        (name ^ " list columns")
        [
          ("inputs", s.Circuit.n_inputs);
          ("outputs", s.Circuit.n_outputs);
          ("dffs", s.Circuit.n_dffs);
          ("gates", s.Circuit.n_gates);
          ("nodes", s.Circuit.n_nodes);
        ]
        (Circuits.list_columns name))
    ("s27" :: List.map (fun p -> p.Circuits.name) Circuits.table1_profiles);
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Circuits.list_columns "s9999"))

let check_generator_deterministic () =
  let p = List.hd Circuits.table1_profiles in
  let c1 = Circuits.generate p and c2 = Circuits.generate p in
  Alcotest.(check string) "identical netlists" (Bench_writer.to_string c1)
    (Bench_writer.to_string c2)

let check_seed_changes_structure () =
  let p = List.hd Circuits.table1_profiles in
  let c1 = Circuits.generate p in
  let c2 = Circuits.generate { p with Circuits.seed = p.Circuits.seed + 1 } in
  Alcotest.(check bool) "different netlists" true
    (Bench_writer.to_string c1 <> Bench_writer.to_string c2)

let check_generated_are_mapped () =
  List.iter
    (fun p ->
      Alcotest.(check bool) (p.Circuits.name ^ " mapped") true
        (Techmap.Mapper.is_mapped (Circuits.generate p)))
    Circuits.table1_profiles

let check_no_dangling_logic () =
  List.iter
    (fun p ->
      let c = Circuits.generate p in
      Array.iter
        (fun nd ->
          if Gate.is_logic nd.Circuit.kind then
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s drives something" p.Circuits.name
                 nd.Circuit.name)
              true
              (Array.length nd.Circuit.fanouts > 0))
        (Circuit.nodes c))
    Circuits.table1_profiles

let check_depth_realistic () =
  List.iter
    (fun p ->
      let c = Circuits.generate p in
      let depth = Circuit.depth c in
      Alcotest.(check bool)
        (Printf.sprintf "%s depth %d in [8, 80]" p.Circuits.name depth)
        true
        (depth >= 8 && depth <= 80))
    Circuits.table1_profiles

let check_sequential_feedback_exists () =
  (* the generated machines must actually be sequential: some flip-flop
     must transitively depend on a flip-flop output *)
  let p = List.hd Circuits.table1_profiles in
  let c = Circuits.generate p in
  let depends_on_state = Array.make (Circuit.node_count c) false in
  Array.iter (fun id -> depends_on_state.(id) <- true) (Circuit.dffs c);
  Array.iter
    (fun id ->
      let nd = Circuit.node c id in
      if not (Gate.is_source nd.Circuit.kind) then
        depends_on_state.(id) <-
          Array.exists (fun f -> depends_on_state.(f)) nd.Circuit.fanins)
    (Circuit.topo_order c);
  Alcotest.(check bool) "feedback" true
    (Array.exists
       (fun id -> depends_on_state.((Circuit.node c id).Circuit.fanins.(0)))
       (Circuit.dffs c))

let check_malformed_profile_rejected () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Circuits.generate
            { Circuits.name = "bad"; n_pi = 0; n_po = 1; n_ff = 0; n_gates = 5;
              seed = 1 });
       false
     with Invalid_argument _ -> true)

let check_s27_is_genuine () =
  (* spot-check the embedded netlist against the published structure *)
  let c = Circuits.s27 () in
  let kind name = (Circuit.node c (Circuit.find c name)).Circuit.kind in
  Alcotest.(check bool) "G10 NOR" true (Gate.equal_kind (kind "G10") Gate.Nor);
  Alcotest.(check bool) "G13 NAND" true (Gate.equal_kind (kind "G13") Gate.Nand);
  Alcotest.(check bool) "G8 AND" true (Gate.equal_kind (kind "G8") Gate.And);
  Alcotest.(check bool) "G17 NOT" true (Gate.equal_kind (kind "G17") Gate.Not);
  (* the three state elements *)
  Alcotest.(check (list string)) "flip-flops" [ "G5"; "G6"; "G7" ]
    (Array.to_list (Circuit.dffs c)
    |> List.map (fun id -> (Circuit.node c id).Circuit.name))

let suite =
  [
    Alcotest.test_case "registry" `Quick check_registry;
    Alcotest.test_case "find lists valid names" `Quick check_find;
    Alcotest.test_case "profiles respected" `Quick check_profiles_respected;
    Alcotest.test_case "list columns equal stats" `Quick check_list_columns;
    Alcotest.test_case "generator deterministic" `Quick check_generator_deterministic;
    Alcotest.test_case "seed changes structure" `Quick check_seed_changes_structure;
    Alcotest.test_case "generated are mapped" `Quick check_generated_are_mapped;
    Alcotest.test_case "no dangling logic" `Quick check_no_dangling_logic;
    Alcotest.test_case "depth realistic" `Quick check_depth_realistic;
    Alcotest.test_case "sequential feedback" `Quick check_sequential_feedback_exists;
    Alcotest.test_case "malformed profile rejected" `Quick
      check_malformed_profile_rejected;
    Alcotest.test_case "s27 is genuine" `Quick check_s27_is_genuine;
  ]
