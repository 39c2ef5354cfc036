(* The Table I kernels on every circuit of the paper's Table I, with
   the vectors [Atpg.Pattern_gen.random_vectors ~seed:7 ~count:20]: the
   CPT fault simulator must agree with the full-cone oracle fault for
   fault, the packed scan simulator with the scan oracle on every toggle
   count under traditional scan from the reset chain state, and the node,
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
  Test_packed_sim.check_oracle_agrees_on
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

(* C-algorithm justification and IVC fill on every Table I circuit,
   exactly as [Flow.evaluate] runs them with its default seed: the
   input-control baseline ([C_algorithm.find ~seed:43]) and the IVC
   fill ([Ivc.fill ~seed:44]) of the leakage-directed controlled
   pattern over the AddMUX selection. Digests are MD5 over one
   character per entry ('0'/'1', and 'x' for X); the expected leakage
   is pinned in hex, so any reordering of the search or of the
   leakage sum shows here. *)

type search = {
  pi_digest : string;
  blocked : int;
  failed : int;
  residual : int;
  attempts : int;
  backtracks : int;
  leakage_hex : string;
  candidates : int;
  values_digest : string;
}

let search_goldens =
  [
    ( "s344",
      {
        pi_digest = "3722b025b9024a757a5ecd6d96d663f0";
        blocked = 7;
        failed = 0;
        residual = 85;
        attempts = 7;
        backtracks = 0;
        leakage_hex = "0x1.d1eeca10bbdeep+4";
        candidates = 32;
        values_digest = "672610b50a56277b514063e0232e7113";
      } );
    ( "s382",
      {
        pi_digest = "dc5c7986daef50c1e02ab09b442ee34f";
        blocked = 3;
        failed = 18;
        residual = 170;
        attempts = 24;
        backtracks = 31;
        leakage_hex = "0x1.e1c72f0d9b7fap+4";
        candidates = 32;
        values_digest = "8ee08c898728b26e1f815d91fb5a8fb2";
      } );
    ( "s444",
      {
        pi_digest = "38b3eff8baf56627478ec76a704e9b52";
        blocked = 3;
        failed = 3;
        residual = 141;
        attempts = 6;
        backtracks = 4;
        leakage_hex = "0x1.0d6f691fbf4f1p+5";
        candidates = 32;
        values_digest = "8a3f1c6f4b1b24cdc0e42ce7915dc749";
      } );
    ( "s510",
      {
        pi_digest = "b9047f8184a81d0a0f4f46eadea35c15";
        blocked = 10;
        failed = 0;
        residual = 12;
        attempts = 10;
        backtracks = 0;
        leakage_hex = "0x1.3744b29629fc6p+5";
        candidates = 32;
        values_digest = "6fac2cd61d614395348332d0c09328c3";
      } );
    ( "s641",
      {
        pi_digest = "01ef0ab99a2e09c4029cd57632194739";
        blocked = 20;
        failed = 7;
        residual = 46;
        attempts = 27;
        backtracks = 96;
        leakage_hex = "0x1.2449d086c69d2p+6";
        candidates = 32;
        values_digest = "83d7b337d3a7f0b83634c7ac213984b0";
      } );
    ( "s713",
      {
        pi_digest = "e2db293a14eff0592460be29abf0ba85";
        blocked = 25;
        failed = 7;
        residual = 52;
        attempts = 36;
        backtracks = 172;
        leakage_hex = "0x1.2d10c09833018p+6";
        candidates = 32;
        values_digest = "6dd94200573bdfa75f0ab63fe3821a91";
      } );
    ( "s1196",
      {
        pi_digest = "4c9246c6daf539aff0beb1ef9d999213";
        blocked = 11;
        failed = 9;
        residual = 267;
        attempts = 23;
        backtracks = 119;
        leakage_hex = "0x1.9c7052a59c381p+6";
        candidates = 32;
        values_digest = "8e920a32a9b5dc7dc2e5c7c99a75f3f3";
      } );
    ( "s1238",
      {
        pi_digest = "68fb2c7300add8d1a66edb646d8053f7";
        blocked = 10;
        failed = 7;
        residual = 126;
        attempts = 19;
        backtracks = 36;
        leakage_hex = "0x1.98922921ae4fp+6";
        candidates = 32;
        values_digest = "d5bf2923f5cd202136083a9f5180fd0c";
      } );
    ( "s1423",
      {
        pi_digest = "c553fd133d94386306630ae7dc6bfb45";
        blocked = 9;
        failed = 28;
        residual = 497;
        attempts = 43;
        backtracks = 355;
        leakage_hex = "0x1.eeb4160c4076dp+6";
        candidates = 32;
        values_digest = "5e5ea000638efd5d0b230e0cddeee4ee";
      } );
    ( "s1494",
      {
        pi_digest = "3afbc5f1fe1e64e87f49d8a5f5a9c5e7";
        blocked = 4;
        failed = 1;
        residual = 37;
        attempts = 7;
        backtracks = 8;
        leakage_hex = "0x1.ed2d48a10a4p+6";
        candidates = 32;
        values_digest = "136c45ec36a8e6dd7833de347e649a97";
      } );
    ( "s5378",
      {
        pi_digest = "9fb76ad1a772f782e5d79e01c18dd556";
        blocked = 26;
        failed = 78;
        residual = 1702;
        attempts = 113;
        backtracks = 1723;
        leakage_hex = "0x1.0d2b8a736991ep+9";
        candidates = 32;
        values_digest = "7f9e7b8d0f608f4ec131cd392064ffb8";
      } );
    ( "s9234",
      {
        pi_digest = "6d4f2676e07db26e3078ede0179c7365";
        blocked = 11;
        failed = 60;
        residual = 3753;
        attempts = 83;
        backtracks = 255;
        leakage_hex = "0x1.1162f39bc53b9p+10";
        candidates = 32;
        values_digest = "e20cd045fb8c17f4b41826c59ab542fa";
      } );
  ]

let digest_of n char_of =
  Digest.to_hex (Digest.string (String.init n char_of))

let logic_char = function
  | Netlist.Logic.Zero -> '0'
  | Netlist.Logic.One -> '1'
  | Netlist.Logic.X -> 'x'

let check_search name expected () =
  let c = Techmap.Mapper.map (Circuits.by_name name) in
  Telemetry.reset ();
  Telemetry.enable ();
  let ic, attempts, backtracks =
    Fun.protect
      ~finally:(fun () ->
        Telemetry.disable ();
        Telemetry.reset ())
      (fun () ->
        let ic = Scanpower.C_algorithm.find ~seed:43 c in
        let counter name = Telemetry.Counter.get (Telemetry.Counter.make name) in
        (ic, counter "core.justify.attempts", counter "core.justify.backtracks"))
  in
  let mux = Scanpower.Mux_insertion.select c in
  let obs = Power.Observability.compute c in
  let cp =
    Scanpower.Controlled_pattern.find
      ~direction:(Scanpower.Justify.Leakage_directed obs) c
      ~muxable:mux.Scanpower.Mux_insertion.muxable
  in
  let filled =
    Scanpower.Ivc.fill ~seed:44 c ~values:cp.Scanpower.Controlled_pattern.values
      ~controlled:cp.Scanpower.Controlled_pattern.controlled
  in
  let pi = ic.Scanpower.C_algorithm.pi_pattern in
  let won = filled.Scanpower.Ivc.values in
  let got =
    {
      pi_digest =
        digest_of (Array.length pi) (fun i -> if pi.(i) then '1' else '0');
      blocked = ic.Scanpower.C_algorithm.blocked_gates;
      failed = ic.Scanpower.C_algorithm.failed_gates;
      residual = ic.Scanpower.C_algorithm.residual_transition_nodes;
      attempts;
      backtracks;
      leakage_hex = Printf.sprintf "%h" filled.Scanpower.Ivc.expected_leakage_uw;
      candidates = filled.Scanpower.Ivc.candidates_tried;
      values_digest = digest_of (Array.length won) (fun i -> logic_char won.(i));
    }
  in
  let pp fmt s =
    Format.fprintf fmt
      "pi %s, blocked %d, failed %d, residual %d, attempts %d, backtracks %d, \
       leakage %s, candidates %d, values %s"
      s.pi_digest s.blocked s.failed s.residual s.attempts s.backtracks
      s.leakage_hex s.candidates s.values_digest
  in
  Alcotest.check (Alcotest.testable pp ( = )) (name ^ " search") expected got

let suite =
  List.map
    (fun (name, expected) ->
      Alcotest.test_case (name ^ " kernels agree, counts pinned") `Quick
        (check name expected))
    table1
  @ List.map
      (fun (name, expected) ->
        Alcotest.test_case (name ^ " C-algorithm and IVC pinned") `Quick
          (check_search name expected))
      search_goldens
