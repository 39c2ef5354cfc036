(* Multiple parallel scan chains: partition validation, shift-cycle
   accounting, response equivalence with the single-chain simulator,
   and the shift-time / activity trade-off. *)

open Netlist

let mapped name = Techmap.Mapper.map (Circuits.by_name name)

let check_partition_shapes () =
  let c = mapped "s382" in
  (* 21 flip-flops *)
  let mc = Scan.Multi_chain.partition c ~chains:4 in
  Alcotest.(check int) "four chains" 4 (Scan.Multi_chain.chain_count mc);
  Alcotest.(check int) "total cells" 21
    (List.fold_left ( + ) 0 (Scan.Multi_chain.chain_lengths mc));
  Alcotest.(check int) "longest chain" 6 (Scan.Multi_chain.shift_cycles_per_vector mc);
  List.iter
    (fun len -> Alcotest.(check bool) "balanced" true (len = 5 || len = 6))
    (Scan.Multi_chain.chain_lengths mc)

let check_partition_validation () =
  let c = mapped "s27" in
  Alcotest.check_raises "zero chains"
    (Invalid_argument "Multi_chain.partition: chains < 1") (fun () ->
      ignore (Scan.Multi_chain.partition c ~chains:0));
  (* more chains than cells: clamped *)
  let mc = Scan.Multi_chain.partition c ~chains:10 in
  Alcotest.(check int) "clamped to n_ff" 3 (Scan.Multi_chain.chain_count mc)

let check_of_orders_validation () =
  let c = mapped "s27" in
  let dffs = Circuit.dffs c in
  let ok = Scan.Multi_chain.of_orders c [ [| dffs.(0); dffs.(1) |]; [| dffs.(2) |] ] in
  Alcotest.(check int) "two chains" 2 (Scan.Multi_chain.chain_count ok);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Multi_chain: flip-flop in two chains") (fun () ->
      ignore (Scan.Multi_chain.of_orders c [ [| dffs.(0) |]; [| dffs.(0); dffs.(1) |] ]));
  Alcotest.check_raises "incomplete"
    (Invalid_argument "Multi_chain: chains do not cover every flip-flop")
    (fun () -> ignore (Scan.Multi_chain.of_orders c [ [| dffs.(0) |] ]))

let check_single_chain_matches_scan_sim () =
  (* one chain in natural order must reproduce Scan_sim exactly *)
  let c = mapped "s382" in
  let vectors = Atpg.Pattern_gen.random_vectors ~seed:3 ~count:15 c in
  let mc = Scan.Multi_chain.of_orders c [ Circuit.dffs c ] in
  let m1 =
    Scan.Multi_chain.measure mc ~policy:Scan.Scan_sim.traditional ~vectors
  in
  let chain = Scan.Scan_chain.natural c in
  let m2 = Scan.Scan_sim.measure c chain Scan.Scan_sim.traditional ~vectors in
  Alcotest.(check int) "same cycles" m2.Scan.Scan_sim.cycles m1.Scan.Multi_chain.cycles;
  Alcotest.(check int) "same toggles" m2.Scan.Scan_sim.total_toggles
    m1.Scan.Multi_chain.total_toggles;
  Alcotest.check (Alcotest.float 1e-9) "same static" m2.Scan.Scan_sim.avg_static_uw
    m1.Scan.Multi_chain.avg_static_uw

let check_responses_independent_of_chain_count () =
  let c = mapped "s382" in
  let vectors = Atpg.Pattern_gen.random_vectors ~seed:5 ~count:12 c in
  let reference =
    Scan.Multi_chain.responses
      (Scan.Multi_chain.of_orders c [ Circuit.dffs c ])
      ~policy:Scan.Scan_sim.traditional ~vectors
  in
  List.iter
    (fun k ->
      let mc = Scan.Multi_chain.partition c ~chains:k in
      Alcotest.(check bool)
        (Printf.sprintf "%d chains capture the same responses" k)
        true
        (Scan.Multi_chain.responses mc ~policy:Scan.Scan_sim.traditional ~vectors
        = reference))
    [ 2; 3; 5; 21 ]

let check_shift_time_scales_down () =
  let c = mapped "s382" in
  let vectors = Atpg.Pattern_gen.random_vectors ~seed:5 ~count:10 c in
  let cycles k =
    (Scan.Multi_chain.measure
       (Scan.Multi_chain.partition c ~chains:k)
       ~policy:Scan.Scan_sim.traditional ~vectors)
      .Scan.Multi_chain.cycles
  in
  let one = cycles 1 and three = cycles 3 and seven = cycles 7 in
  Alcotest.(check bool)
    (Printf.sprintf "%d > %d > %d" one three seven)
    true
    (one > three && three > seven)

let check_policies_work_with_multiple_chains () =
  let c = mapped "s382" in
  let vectors = Atpg.Pattern_gen.random_vectors ~seed:7 ~count:12 c in
  let mc = Scan.Multi_chain.partition c ~chains:3 in
  let trad = Scan.Multi_chain.measure mc ~policy:Scan.Scan_sim.traditional ~vectors in
  let forced =
    Array.to_list (Circuit.dffs c) |> List.map (fun id -> (id, false))
  in
  let quiet =
    Scan.Multi_chain.measure mc
      ~policy:
        {
          Scan.Scan_sim.pi_during_shift =
            Some (Array.make (Array.length (Circuit.inputs c)) false);
          forced_pseudo = forced;
          hold_previous_capture = false;
        }
      ~vectors
  in
  Alcotest.(check bool) "muxing still cuts activity" true
    (quiet.Scan.Multi_chain.total_toggles < trad.Scan.Multi_chain.total_toggles);
  let responses_match =
    Scan.Multi_chain.responses mc ~policy:Scan.Scan_sim.traditional ~vectors
    = Scan.Multi_chain.responses mc
        ~policy:
          {
            Scan.Scan_sim.pi_during_shift = Some (Array.make 3 false);
            forced_pseudo = forced;
            hold_previous_capture = false;
          }
        ~vectors
  in
  Alcotest.(check bool) "responses preserved" true responses_match

let suite =
  [
    Alcotest.test_case "partition shapes" `Quick check_partition_shapes;
    Alcotest.test_case "partition validation" `Quick check_partition_validation;
    Alcotest.test_case "of_orders validation" `Quick check_of_orders_validation;
    Alcotest.test_case "single chain matches Scan_sim" `Quick
      check_single_chain_matches_scan_sim;
    Alcotest.test_case "responses independent of chain count" `Quick
      check_responses_independent_of_chain_count;
    Alcotest.test_case "shift time scales down" `Quick check_shift_time_scales_down;
    Alcotest.test_case "policies on multiple chains" `Quick
      check_policies_work_with_multiple_chains;
  ]
