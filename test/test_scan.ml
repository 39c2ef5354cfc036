(* Scan chain and the cycle-accurate scan power simulator: shift
   mechanics, response correctness (the power techniques must not
   change test behaviour), and the power-ordering properties the paper
   claims. *)

open Netlist

let mapped name = Techmap.Mapper.map (Circuits.by_name name)

let s27m = lazy (mapped "s27")

let check_chain_construction () =
  let c = Lazy.force s27m in
  let chain = Scan.Scan_chain.natural c in
  Alcotest.(check int) "length" 3 (Scan.Scan_chain.length chain);
  let cells = Scan.Scan_chain.cells chain in
  Array.iteri
    (fun pos id ->
      Alcotest.(check int) "position_of inverse" pos
        (Scan.Scan_chain.position_of chain id))
    cells

let check_chain_reorder_validation () =
  let c = Lazy.force s27m in
  let dffs = Circuit.dffs c in
  let reversed = Array.of_list (List.rev (Array.to_list dffs)) in
  let chain = Scan.Scan_chain.of_order c reversed in
  Alcotest.(check int) "cell 0 is last dff" dffs.(2) (Scan.Scan_chain.cell_at chain 0);
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Scan_chain.of_order: wrong length") (fun () ->
      ignore (Scan.Scan_chain.of_order c [| dffs.(0) |]));
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Scan_chain.of_order: not a permutation of the flip-flops")
    (fun () ->
      ignore (Scan.Scan_chain.of_order c [| dffs.(0); dffs.(0); dffs.(1) |]))

(* Replay [shift_in_sequence] on a shift register per chain: every
   chain must land on its part of [target], the short ones included. *)
let check_shift_in_sequence () =
  let c = mapped "s382" in
  List.iter
    (fun chain ->
      let n = Scan.Scan_chain.length chain in
      let target = Array.init n (fun i -> i mod 3 <> 1) in
      let seq = Scan.Scan_chain.shift_in_sequence chain target in
      Alcotest.(check int) "one step per shift cycle"
        (Scan.Scan_chain.shift_cycles chain) (List.length seq);
      let state = Array.make n false in
      List.iter
        (fun bits ->
          ignore
            (List.fold_left
               (fun (k, start) len ->
                 if len > 0 then begin
                   Array.blit state start state (start + 1) (len - 1);
                   state.(start) <- bits.(k)
                 end;
                 (k + 1, start + len))
               (0, 0) (Scan.Scan_chain.chain_lengths chain)))
        seq;
      Alcotest.(check (array bool)) "lands on target" target state)
    [
      Scan.Scan_chain.natural c;
      Scan.Scan_chain.partition c ~chains:4;
      Scan.Scan_chain.of_orders c
        [ Array.sub (Circuit.dffs c) 0 2; Array.sub (Circuit.dffs c) 2 19 ];
    ]

let test_vectors c n seed =
  Atpg.Pattern_gen.random_vectors ~seed ~count:n c

(* The central functional-safety claim: input-control and the proposed
   multiplexed structure change nothing about what the test observes —
   capture responses are identical to traditional scan. *)
let check_policies_preserve_responses () =
  let c = Lazy.force s27m in
  let chain = Scan.Scan_chain.natural c in
  let vectors = test_vectors c 25 5 in
  let base =
    Scan.Scan_sim.responses c chain Scan.Scan_sim.traditional ~vectors
  in
  let ic_policy =
    { Scan.Scan_sim.pi_during_shift = Some [| true; false; true; false |];
      forced_pseudo = []; hold_previous_capture = false }
  in
  let with_ic = Scan.Scan_sim.responses c chain ic_policy ~vectors in
  Alcotest.(check bool) "input control same responses" true (base = with_ic);
  let forced = [ ((Circuit.dffs c).(0), true); ((Circuit.dffs c).(2), false) ] in
  let prop_policy =
    { Scan.Scan_sim.pi_during_shift = Some [| false; false; true; true |];
      forced_pseudo = forced; hold_previous_capture = false }
  in
  let with_mux = Scan.Scan_sim.responses c chain prop_policy ~vectors in
  Alcotest.(check bool) "muxed structure same responses" true (base = with_mux)

let check_responses_match_seq_sim () =
  (* capture responses = next-state function of (pi, shifted state) *)
  let c = Lazy.force s27m in
  let chain = Scan.Scan_chain.natural c in
  let vectors = test_vectors c 10 6 in
  let responses =
    Scan.Scan_sim.responses c chain Scan.Scan_sim.traditional ~vectors
  in
  List.iter2
    (fun vec resp ->
      let n_pi = Array.length (Circuit.inputs c) in
      let pi = Array.sub vec 0 n_pi in
      let st = Array.sub vec n_pi (Array.length vec - n_pi) in
      let sim = Seq_sim.create ~init_state:st c in
      let _ = Seq_sim.step sim pi in
      (* seq sim state order = Circuit.dffs order = chain order here *)
      Alcotest.(check (array bool)) "capture = next state" (Seq_sim.state sim) resp)
    vectors responses

let check_cycle_counting () =
  let c = Lazy.force s27m in
  let chain = Scan.Scan_chain.natural c in
  let vectors = test_vectors c 4 7 in
  let m = Scan.Scan_sim.measure c chain Scan.Scan_sim.traditional ~vectors in
  (* 4 vectors x (3 shifts + 1 capture) + 3 final shift-out cycles *)
  Alcotest.(check int) "total cycles" ((4 * 4) + 3) m.Scan.Scan_sim.cycles;
  Alcotest.(check int) "shift cycles" ((4 * 3) + 3) m.Scan.Scan_sim.shift_cycles

let check_empty_test_set () =
  let c = Lazy.force s27m in
  let chain = Scan.Scan_chain.natural c in
  let m = Scan.Scan_sim.measure c chain Scan.Scan_sim.traditional ~vectors:[] in
  Alcotest.(check int) "no toggles" 0 m.Scan.Scan_sim.total_toggles

let check_forced_non_dff_rejected () =
  let c = Lazy.force s27m in
  let chain = Scan.Scan_chain.natural c in
  let pi = (Circuit.inputs c).(0) in
  Alcotest.check_raises "forced PI"
    (Invalid_argument "Scan_sim: forced node is not a flip-flop") (fun () ->
      ignore
        (Scan.Scan_sim.measure c chain
           { Scan.Scan_sim.pi_during_shift = None; forced_pseudo = [ (pi, true) ]; hold_previous_capture = false }
           ~vectors:(test_vectors c 2 8)))

let check_policy_validation () =
  let c = Lazy.force s27m in
  let chain = Scan.Scan_chain.natural c in
  Alcotest.check_raises "bad PI pattern length"
    (Invalid_argument "Scan_sim: shift PI pattern length mismatch") (fun () ->
      ignore
        (Scan.Scan_sim.measure c chain
           { Scan.Scan_sim.pi_during_shift = Some [| true |]; forced_pseudo = []; hold_previous_capture = false }
           ~vectors:(test_vectors c 2 8)))

let check_muxing_everything_minimizes_dynamic () =
  (* Forcing every pseudo-input and holding the PIs leaves only the
     capture-edge churn. On a flip-flop-dominated circuit (s382: 21
     cells, so 21 shift cycles between captures) the shift savings must
     win. (On tiny chains like s27's the capture churn can exceed the
     savings — the paper's own s510 row shows the effect as a negative
     improvement vs the input-control baseline.) *)
  let c = mapped "s382" in
  let chain = Scan.Scan_chain.natural c in
  let vectors = test_vectors c 20 9 in
  let trad = Scan.Scan_sim.measure c chain Scan.Scan_sim.traditional ~vectors in
  let all_forced =
    Array.to_list (Circuit.dffs c) |> List.map (fun id -> (id, false))
  in
  let policy =
    {
      Scan.Scan_sim.pi_during_shift =
        Some (Array.make (Array.length (Circuit.inputs c)) false);
      forced_pseudo = all_forced;
      hold_previous_capture = false;
    }
  in
  let quiet = Scan.Scan_sim.measure c chain policy ~vectors in
  Alcotest.(check bool)
    (Printf.sprintf "quiet %d < traditional %d" quiet.Scan.Scan_sim.total_toggles
       trad.Scan.Scan_sim.total_toggles)
    true
    (quiet.Scan.Scan_sim.total_toggles < trad.Scan.Scan_sim.total_toggles)

let check_static_measures_positive () =
  let c = Lazy.force s27m in
  let chain = Scan.Scan_chain.natural c in
  let vectors = test_vectors c 5 10 in
  let m = Scan.Scan_sim.measure c chain Scan.Scan_sim.traditional ~vectors in
  Alcotest.(check bool) "avg static positive" true (m.Scan.Scan_sim.avg_static_uw > 0.0);
  Alcotest.(check bool) "peak >= avg" true
    (m.Scan.Scan_sim.peak_static_uw >= m.Scan.Scan_sim.avg_static_uw -. 1e-9);
  Alcotest.(check bool) "capture static positive" true
    (m.Scan.Scan_sim.avg_capture_static_uw > 0.0)

let prop_responses_policy_invariant =
  QCheck.Test.make ~name:"responses invariant under any shift policy" ~count:10
    (QCheck.make QCheck.Gen.(pair (int_range 0 500) (int_range 1 15)))
    (fun (seed, n_vec) ->
      let c = Lazy.force s27m in
      let chain = Scan.Scan_chain.natural c in
      let rng = Util.Rng.create seed in
      let vectors = test_vectors c n_vec seed in
      let policy =
        {
          Scan.Scan_sim.pi_during_shift =
            (if Util.Rng.bool rng then Some (Util.Rng.bool_array rng 4) else None);
          forced_pseudo =
            Array.to_list (Circuit.dffs c)
            |> List.filter_map (fun id ->
                   if Util.Rng.bool rng then Some (id, Util.Rng.bool rng) else None);
          hold_previous_capture = false;
        }
      in
      Scan.Scan_sim.responses c chain policy ~vectors
      = Scan.Scan_sim.responses c chain Scan.Scan_sim.traditional ~vectors)

(* ------------------------------------------------------------------ *)
(* Multiple parallel scan chains: partition shapes and validation,     *)
(* shift-cycle accounting, responses independent of the partition and  *)
(* the shift-time / activity trade-off of bench ablation (h).           *)
(* ------------------------------------------------------------------ *)

let check_partition_shapes () =
  let c = mapped "s382" in
  (* 21 flip-flops *)
  let chain = Scan.Scan_chain.partition c ~chains:4 in
  Alcotest.(check int) "four chains" 4 (Scan.Scan_chain.chain_count chain);
  Alcotest.(check int) "total cells" 21
    (List.fold_left ( + ) 0 (Scan.Scan_chain.chain_lengths chain));
  Alcotest.(check int) "longest chain" 6 (Scan.Scan_chain.shift_cycles chain);
  List.iter
    (fun len -> Alcotest.(check bool) "balanced" true (len = 5 || len = 6))
    (Scan.Scan_chain.chain_lengths chain)

let check_partition_validation () =
  let c = Lazy.force s27m in
  Alcotest.check_raises "zero chains"
    (Invalid_argument "Scan_chain.partition: chains < 1") (fun () ->
      ignore (Scan.Scan_chain.partition c ~chains:0));
  (* more chains than cells: clamped *)
  let chain = Scan.Scan_chain.partition c ~chains:10 in
  Alcotest.(check int) "clamped to n_ff" 3 (Scan.Scan_chain.chain_count chain)

let check_of_orders_validation () =
  let c = Lazy.force s27m in
  let dffs = Circuit.dffs c in
  let ok = Scan.Scan_chain.of_orders c [ [| dffs.(0); dffs.(1) |]; [| dffs.(2) |] ] in
  Alcotest.(check int) "two chains" 2 (Scan.Scan_chain.chain_count ok);
  Alcotest.check_raises "not a flip-flop"
    (Invalid_argument "Scan_chain.of_orders: not a flip-flop") (fun () ->
      ignore
        (Scan.Scan_chain.of_orders c [ Array.append dffs (Circuit.inputs c) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Scan_chain.of_orders: flip-flop in two chains") (fun () ->
      ignore (Scan.Scan_chain.of_orders c [ [| dffs.(0) |]; [| dffs.(0); dffs.(1) |] ]));
  Alcotest.check_raises "incomplete"
    (Invalid_argument "Scan_chain.of_orders: chains do not cover every flip-flop")
    (fun () -> ignore (Scan.Scan_chain.of_orders c [ [| dffs.(0) |] ]))

let check_single_chain_matches_natural () =
  (* one explicit chain in declaration order is the natural chain *)
  let c = mapped "s382" in
  let vectors = test_vectors c 15 3 in
  let m1 =
    Scan.Scan_sim.measure c
      (Scan.Scan_chain.of_orders c [ Circuit.dffs c ])
      Scan.Scan_sim.traditional ~vectors
  in
  let m2 =
    Scan.Scan_sim.measure c (Scan.Scan_chain.natural c)
      Scan.Scan_sim.traditional ~vectors
  in
  Alcotest.(check int) "same cycles" m2.Scan.Scan_sim.cycles m1.Scan.Scan_sim.cycles;
  Alcotest.(check (array int)) "same toggles" m2.Scan.Scan_sim.toggles
    m1.Scan.Scan_sim.toggles;
  Alcotest.(check (array int)) "same per-cycle toggles"
    m2.Scan.Scan_sim.per_cycle_toggles m1.Scan.Scan_sim.per_cycle_toggles;
  Alcotest.check (Alcotest.float 0.0) "same static" m2.Scan.Scan_sim.avg_static_uw
    m1.Scan.Scan_sim.avg_static_uw

(* Responses come back by chain position; re-index them by flip-flop,
   in [Circuit.dffs] order. *)
let responses_by_dff c chain policy ~vectors =
  List.map
    (fun r ->
      Array.map (fun id -> r.(Scan.Scan_chain.position_of chain id)) (Circuit.dffs c))
    (Scan.Scan_sim.responses c chain policy ~vectors)

let check_responses_independent_of_chain_count () =
  let c = mapped "s382" in
  let vectors = test_vectors c 12 5 in
  let reference =
    responses_by_dff c (Scan.Scan_chain.natural c) Scan.Scan_sim.traditional
      ~vectors
  in
  List.iter
    (fun k ->
      Alcotest.(check (list (array bool)))
        (Printf.sprintf "%d chains capture the same responses" k)
        reference
        (responses_by_dff c
           (Scan.Scan_chain.partition c ~chains:k)
           Scan.Scan_sim.traditional ~vectors))
    [ 2; 3; 5; 21 ]

let check_shift_time_scales_down () =
  let c = mapped "s382" in
  let vectors = test_vectors c 10 5 in
  let cycles k =
    (Scan.Scan_sim.measure c
       (Scan.Scan_chain.partition c ~chains:k)
       Scan.Scan_sim.traditional ~vectors)
      .Scan.Scan_sim.cycles
  in
  let one = cycles 1 and three = cycles 3 and seven = cycles 7 in
  Alcotest.(check bool)
    (Printf.sprintf "%d > %d > %d" one three seven)
    true
    (one > three && three > seven)

let check_policies_work_with_multiple_chains () =
  let c = mapped "s382" in
  let vectors = test_vectors c 12 7 in
  let chain = Scan.Scan_chain.partition c ~chains:3 in
  let trad = Scan.Scan_sim.measure c chain Scan.Scan_sim.traditional ~vectors in
  let forced =
    Array.to_list (Circuit.dffs c) |> List.map (fun id -> (id, false))
  in
  let quiet_policy =
    {
      Scan.Scan_sim.pi_during_shift =
        Some (Array.make (Array.length (Circuit.inputs c)) false);
      forced_pseudo = forced;
      hold_previous_capture = false;
    }
  in
  let quiet = Scan.Scan_sim.measure c chain quiet_policy ~vectors in
  Alcotest.(check bool) "muxing still cuts activity" true
    (quiet.Scan.Scan_sim.total_toggles < trad.Scan.Scan_sim.total_toggles);
  Alcotest.(check (list (array bool))) "responses preserved"
    (Scan.Scan_sim.responses c chain Scan.Scan_sim.traditional ~vectors)
    (Scan.Scan_sim.responses c chain quiet_policy ~vectors)

(* Bench ablation (h) pinned: traditional scan of s382 under 50 seeded
   random vectors on 1, 2, 4, 7 and 21 round-robin chains, as
   (chains, cycles, total toggles, dynamic power per Hz as printed,
   peak static uW). *)
let ablation_h_golden =
  [
    (1, 1121, 52600, "7.987e-08", 35.04);
    (2, 611, 28898, "8.069e-08", 34.72);
    (4, 356, 14618, "7.037e-08", 34.63);
    (7, 203, 6896, "5.776e-08", 34.29);
    (21, 101, 2588, "4.453e-08", 34.29);
  ]

let check_ablation_h_golden () =
  let c = mapped "s382" in
  let vectors = Atpg.Pattern_gen.random_vectors ~seed:3 ~count:50 c in
  List.iter
    (fun (k, cycles, toggles, dyn, peak) ->
      let m =
        Scan.Scan_sim.measure c
          (Scan.Scan_chain.partition c ~chains:k)
          Scan.Scan_sim.traditional ~vectors
      in
      let tag what = Printf.sprintf "%d chains: %s" k what in
      Alcotest.(check int) (tag "cycles") cycles m.Scan.Scan_sim.cycles;
      Alcotest.(check int) (tag "toggles") toggles m.Scan.Scan_sim.total_toggles;
      Alcotest.(check string) (tag "dyn/f") dyn
        (Printf.sprintf "%.3e"
           m.Scan.Scan_sim.dynamic.Power.Switching.dynamic_per_hz_uw);
      Alcotest.check (Alcotest.float 0.005) (tag "peak static") peak
        m.Scan.Scan_sim.peak_static_uw)
    ablation_h_golden

let suite =
  [
    Alcotest.test_case "chain construction" `Quick check_chain_construction;
    Alcotest.test_case "chain reorder validation" `Quick check_chain_reorder_validation;
    Alcotest.test_case "shift-in sequence" `Quick check_shift_in_sequence;
    Alcotest.test_case "policies preserve responses" `Quick
      check_policies_preserve_responses;
    Alcotest.test_case "responses match seq sim" `Quick check_responses_match_seq_sim;
    Alcotest.test_case "cycle counting" `Quick check_cycle_counting;
    Alcotest.test_case "empty test set" `Quick check_empty_test_set;
    Alcotest.test_case "forced non-dff rejected" `Quick check_forced_non_dff_rejected;
    Alcotest.test_case "policy validation" `Quick check_policy_validation;
    Alcotest.test_case "muxing everything minimizes dynamic" `Quick
      check_muxing_everything_minimizes_dynamic;
    Alcotest.test_case "static measures positive" `Quick check_static_measures_positive;
    QCheck_alcotest.to_alcotest prop_responses_policy_invariant;
  ]

(* The multi-chain cases above, run as a group of their own. *)
let multi_chain_suite =
  [
    Alcotest.test_case "partition shapes" `Quick check_partition_shapes;
    Alcotest.test_case "partition validation" `Quick check_partition_validation;
    Alcotest.test_case "of_orders validation" `Quick check_of_orders_validation;
    Alcotest.test_case "single chain matches Scan_sim" `Quick
      check_single_chain_matches_natural;
    Alcotest.test_case "responses independent of chain count" `Quick
      check_responses_independent_of_chain_count;
    Alcotest.test_case "shift time scales down" `Quick check_shift_time_scales_down;
    Alcotest.test_case "policies on multiple chains" `Quick
      check_policies_work_with_multiple_chains;
    Alcotest.test_case "ablation (h) golden" `Quick check_ablation_h_golden;
  ]
