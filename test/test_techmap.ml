(* Technology mapping: functional equivalence and library compliance. *)

open Netlist

let mapped_library_only c =
  Array.for_all
    (fun nd ->
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff | Gate.Output -> true
      | Gate.Not -> true
      | Gate.Nand | Gate.Nor ->
        let k = Array.length nd.Circuit.fanins in
        k >= 2 && k <= Techlib.Cell.max_fanin
      | Gate.Buf | Gate.And | Gate.Or | Gate.Xor | Gate.Xnor -> false)
    (Circuit.nodes c)

(* Sequential co-simulation of original vs mapped on random stimuli. *)
let equivalent ?(vectors = 50) ~seed c c' =
  let n_pi = Array.length (Circuit.inputs c) in
  let sim = Seq_sim.create c and sim' = Seq_sim.create c' in
  let rng = Util.Rng.create seed in
  let ok = ref true in
  for _ = 1 to vectors do
    let v = Util.Rng.bool_array rng n_pi in
    if Seq_sim.step sim v <> Seq_sim.step sim' v then ok := false
  done;
  !ok

let check_s27_maps_and_matches () =
  let c = Circuits.s27 () in
  let c' = Techmap.Mapper.map c in
  Alcotest.(check bool) "library only" true (mapped_library_only c');
  Alcotest.(check bool) "is_mapped" true (Techmap.Mapper.is_mapped c');
  Alcotest.(check bool) "was not mapped before" false (Techmap.Mapper.is_mapped c);
  Alcotest.(check bool) "equivalent" true (equivalent ~seed:11 c c')

let wide_gate_circuit kind =
  let b = Circuit.Builder.create ~name:"wide" () in
  let pis = List.init 9 (fun i -> Circuit.Builder.add_input b (Printf.sprintf "i%d" i)) in
  let g = Circuit.Builder.add_gate b kind "wide_gate" pis in
  let _ = Circuit.Builder.add_output b "po" g in
  Circuit.Builder.build b

let check_wide_gates_decompose kind () =
  let c = wide_gate_circuit kind in
  let c' = Techmap.Mapper.map c in
  Alcotest.(check bool) "library only" true (mapped_library_only c');
  Alcotest.(check bool) "equivalent" true (equivalent ~seed:3 c c')

let xor_chain_circuit () =
  let b = Circuit.Builder.create ~name:"xors" () in
  let a = Circuit.Builder.add_input b "a" in
  let b2 = Circuit.Builder.add_input b "b" in
  let cc = Circuit.Builder.add_input b "c" in
  let x1 = Circuit.Builder.add_gate b Gate.Xor "x1" [ a; b2; cc ] in
  let x2 = Circuit.Builder.add_gate b Gate.Xnor "x2" [ x1; a ] in
  let _ = Circuit.Builder.add_output b "po" x2 in
  Circuit.Builder.build b

let check_xor_expansion () =
  let c = xor_chain_circuit () in
  let c' = Techmap.Mapper.map c in
  Alcotest.(check bool) "library only" true (mapped_library_only c');
  Alcotest.(check bool) "equivalent" true (equivalent ~seed:4 c c')

let buffer_circuit () =
  let b = Circuit.Builder.create ~name:"bufs" () in
  let a = Circuit.Builder.add_input b "a" in
  let b1 = Circuit.Builder.add_gate b Gate.Buf "b1" [ a ] in
  let b2 = Circuit.Builder.add_gate b Gate.Buf "b2" [ b1 ] in
  let g = Circuit.Builder.add_gate b Gate.Nand "g" [ b2; a ] in
  let _ = Circuit.Builder.add_output b "po" g in
  Circuit.Builder.build b

let check_buffers_dissolved () =
  let c' = Techmap.Mapper.map (buffer_circuit ()) in
  Alcotest.(check bool) "no buffers left" true
    (Array.for_all
       (fun nd -> not (Gate.equal_kind nd.Circuit.kind Gate.Buf))
       (Circuit.nodes c'));
  Alcotest.(check bool) "equivalent" true (equivalent ~seed:5 (buffer_circuit ()) c')

let check_idempotent_on_mapped () =
  let c = Techmap.Mapper.map (Circuits.s27 ()) in
  Alcotest.(check bool) "mapped is mapped" true (Techmap.Mapper.is_mapped c);
  let c' = Techmap.Mapper.map c in
  Alcotest.(check int) "same gate count" (Circuit.gate_count c)
    (Circuit.gate_count c');
  Alcotest.(check bool) "equivalent" true (equivalent ~seed:6 c c')

let check_cell_of_node () =
  let c = Techmap.Mapper.map (Circuits.s27 ()) in
  Array.iter
    (fun nd ->
      if Gate.is_logic nd.Circuit.kind then
        Alcotest.(check bool) "has cell" true
          (Techmap.Mapper.cell_of_node c nd.Circuit.id <> None)
      else
        Alcotest.(check bool) "no cell" true
          (Techmap.Mapper.cell_of_node c nd.Circuit.id = None))
    (Circuit.nodes c)

let check_cell_of_node_rejects_unmapped () =
  let c = Circuits.s27 () in
  (* s27 contains AND/OR gates *)
  let and_gate =
    Array.to_list (Circuit.nodes c)
    |> List.find (fun nd -> Gate.equal_kind nd.Circuit.kind Gate.And)
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Techmap.Mapper.cell_of_node c and_gate.Circuit.id);
       false
     with Invalid_argument _ -> true)

let prop_mapping_preserves_function =
  QCheck.Test.make ~name:"mapping preserves sequential behaviour" ~count:12
    (QCheck.make
       QCheck.Gen.(pair (int_range 3 8) (int_range 15 80)))
    (fun (n_pi, n_gates) ->
      (* generated circuits are already mapped, so wrap odd gates in:
         use a parsed s27 variant plus generated structure via bench
         text manipulation is overkill; instead randomize via seeds *)
      let c =
        Circuits.generate
          {
            Circuits.name = "prop";
            n_pi;
            n_po = 2;
            n_ff = 3;
            n_gates;
            seed = n_gates * 31;
          }
      in
      let c' = Techmap.Mapper.map c in
      mapped_library_only c' && equivalent ~vectors:30 ~seed:n_gates c c')

let check_loads_positive () =
  let c = Techmap.Mapper.map (Circuits.s27 ()) in
  Array.iter
    (fun nd ->
      let load = Techmap.Loads.node_load c nd.Circuit.id in
      if
        Array.length nd.Circuit.fanouts > 0
        && not (Gate.equal_kind nd.Circuit.kind Gate.Output)
      then Alcotest.(check bool) "driving nodes have load" true (load > 0.0)
      else Alcotest.(check bool) "non-negative" true (load >= 0.0))
    (Circuit.nodes c)

let check_load_counts_duplicate_pins () =
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.add_input b "a" in
  let g = Circuit.Builder.add_gate b Gate.Nand "g" [ a; a ] in
  let _ = Circuit.Builder.add_output b "po" g in
  let c = Circuit.Builder.build b in
  let expected =
    (2.0 *. Techlib.Cell.input_cap (Techlib.Cell.Nand 2))
    +. (2.0 *. Techlib.Cell.wire_cap_per_fanout)
  in
  Alcotest.check (Alcotest.float 1e-9) "both pins counted" expected
    (Techmap.Loads.node_load c a)

let suite =
  [
    Alcotest.test_case "s27 maps and matches" `Quick check_s27_maps_and_matches;
    Alcotest.test_case "wide AND decomposes" `Quick
      (check_wide_gates_decompose Gate.And);
    Alcotest.test_case "wide NAND decomposes" `Quick
      (check_wide_gates_decompose Gate.Nand);
    Alcotest.test_case "wide OR decomposes" `Quick
      (check_wide_gates_decompose Gate.Or);
    Alcotest.test_case "wide NOR decomposes" `Quick
      (check_wide_gates_decompose Gate.Nor);
    Alcotest.test_case "xor expansion" `Quick check_xor_expansion;
    Alcotest.test_case "buffers dissolved" `Quick check_buffers_dissolved;
    Alcotest.test_case "idempotent on mapped" `Quick check_idempotent_on_mapped;
    Alcotest.test_case "cell_of_node" `Quick check_cell_of_node;
    Alcotest.test_case "cell_of_node rejects unmapped" `Quick
      check_cell_of_node_rejects_unmapped;
    Alcotest.test_case "loads positive" `Quick check_loads_positive;
    Alcotest.test_case "load counts duplicate pins" `Quick
      check_load_counts_duplicate_pins;
    QCheck_alcotest.to_alcotest prop_mapping_preserves_function;
  ]
