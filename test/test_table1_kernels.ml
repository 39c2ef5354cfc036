(* The Table I kernels on every circuit of the paper's Table I, with
   the vectors [Atpg.Pattern_gen.random_vectors ~seed:7 ~count:20]: the
   CPT fault simulator must agree with the Cone oracle fault for fault,
   the packed scan simulator with the scalar one on every toggle count
   under traditional scan from the reset chain state, and the node,
   fault, detection, cycle and toggle counts are pinned. A change to
   either kernel that moves a count fails here. *)

type counts = {
  nodes : int;
  faults : int;
  detected : int;
  cycles : int;
  toggles : int;
}

let table1 =
  [
    ( "s344",
      { nodes = 195; faults = 547; detected = 186; cycles = 335; toggles = 9382 } );
    ( "s382",
      { nodes = 188; faults = 537; detected = 253; cycles = 461; toggles = 21864 } );
    ( "s444",
      { nodes = 211; faults = 625; detected = 216; cycles = 461; toggles = 19590 } );
    ( "s510",
      { nodes = 243; faults = 690; detected = 222; cycles = 146; toggles = 3144 } );
    ( "s641",
      { nodes = 457; faults = 1335; detected = 199; cycles = 419; toggles = 15068 } );
    ( "s713",
      { nodes = 470; faults = 1413; detected = 338; cycles = 419; toggles = 23386 } );
    ( "s1196",
      { nodes = 575; faults = 1873; detected = 542; cycles = 398; toggles = 33542 } );
    ( "s1238",
      { nodes = 554; faults = 1806; detected = 477; cycles = 398; toggles = 24684 } );
    ( "s1423",
      { nodes = 753; faults = 2332; detected = 641; cycles = 1574; toggles = 212838 } );
    ( "s1494",
      { nodes = 680; faults = 2226; detected = 244; cycles = 146; toggles = 5488 } );
    ( "s5378",
      { nodes = 3042; faults = 9798; detected = 1924; cycles = 3779; toggles = 1678056 } );
    ( "s9234",
      { nodes = 5883; faults = 19430; detected = 3621; cycles = 4451; toggles = 3043616 } );
  ]

let seed = 7
let n_vectors = 20

let check name expected () =
  let c = Circuits.by_name name in
  Test_fault_sim.check_split_agrees ~reuse:false name c ~seed ~n_vectors;
  Test_packed_sim.check_engines_agree_on
    ~init_state:(Array.make (Array.length (Netlist.Circuit.dffs c)) false)
    ~policies:(fun _ _ -> [ ("traditional", Scan.Scan_sim.traditional) ])
    name c ~seed ~n_vectors;
  let vectors = Atpg.Pattern_gen.random_vectors ~seed ~count:n_vectors c in
  let faults = Atpg.Fault.collapsed_faults c in
  let detected, _ = Atpg.Fault_simulation.split c ~faults ~vectors in
  let m =
    Scan.Scan_sim.measure c (Scan.Scan_chain.natural c)
      Scan.Scan_sim.traditional ~vectors
  in
  let got =
    {
      nodes = Netlist.Circuit.node_count c;
      faults = List.length faults;
      detected = List.length detected;
      cycles = m.Scan.Scan_sim.cycles;
      toggles = m.Scan.Scan_sim.total_toggles;
    }
  in
  let pp_counts fmt { nodes; faults; detected; cycles; toggles } =
    Format.fprintf fmt "nodes %d, faults %d, detected %d, cycles %d, toggles %d"
      nodes faults detected cycles toggles
  in
  Alcotest.check
    (Alcotest.testable pp_counts ( = ))
    (name ^ " counts") expected got

let suite =
  List.map
    (fun (name, expected) ->
      Alcotest.test_case (name ^ " kernels agree, counts pinned") `Quick
        (check name expected))
    table1
