(* AddMUX: strategy equivalence, critical-path exclusion, delay
   preservation. *)

open Netlist

let mapped name = Techmap.Mapper.map (Circuits.by_name name)

let check_strategies_agree () =
  List.iter
    (fun name ->
      let c = mapped name in
      let naive = Scanpower.Mux_insertion.select ~strategy:Scanpower.Mux_insertion.Naive c in
      let slack =
        Scanpower.Mux_insertion.select ~strategy:Scanpower.Mux_insertion.Slack_based c
      in
      Alcotest.(check (list int))
        (name ^ " same muxable set")
        (List.sort compare naive.Scanpower.Mux_insertion.muxable)
        (List.sort compare slack.Scanpower.Mux_insertion.muxable))
    [ "s27"; "s344"; "s382" ]

let check_partition_is_complete () =
  let c = mapped "s344" in
  let sel = Scanpower.Mux_insertion.select c in
  let all =
    List.sort compare
      (sel.Scanpower.Mux_insertion.muxable @ sel.Scanpower.Mux_insertion.blocked)
  in
  Alcotest.(check (list int)) "muxable + blocked = dffs"
    (List.sort compare (Array.to_list (Circuit.dffs c)))
    all

let check_muxable_preserve_delay () =
  (* each muxable cell individually keeps the critical delay; the test
     below covers all of them at once *)
  let c = mapped "s344" in
  let sel = Scanpower.Mux_insertion.select c in
  let base = sel.Scanpower.Mux_insertion.critical_delay_ps in
  List.iter
    (fun dff ->
      let d =
        Sta.delay_with_penalty c
          ~penalties:[ (dff, sel.Scanpower.Mux_insertion.mux_penalty_ps) ]
      in
      Alcotest.(check bool) "unchanged delay" true (d <= base +. 1e-6))
    sel.Scanpower.Mux_insertion.muxable

(* The paper's AddMUX claim: with a mux on every muxable cell at once,
   the critical delay is unchanged. This holds by construction, not by
   luck: a penalty at a source shifts only the paths that start there,
   and each path has exactly one source, so the longest path through
   the penalised netlist is the longest of the per-cell penalised
   paths, each of which fits in its cell's slack. *)
let check_all_muxes_preserve_delay () =
  List.iter
    (fun (p : Circuits.profile) ->
      let c = mapped p.Circuits.name in
      let sel = Scanpower.Mux_insertion.select c in
      let base = sel.Scanpower.Mux_insertion.critical_delay_ps in
      let penalty = sel.Scanpower.Mux_insertion.mux_penalty_ps in
      let d =
        Sta.delay_with_penalty c
          ~penalties:
            (List.map (fun dff -> (dff, penalty))
               sel.Scanpower.Mux_insertion.muxable)
      in
      if not (d <= base +. 1e-6) then
        Alcotest.failf "%s: %d muxes raise the critical delay %.3f -> %.3f ps"
          p.Circuits.name
          (List.length sel.Scanpower.Mux_insertion.muxable)
          base d)
    Circuits.table1_profiles

let check_blocked_would_slow_down () =
  let c = mapped "s344" in
  let sel = Scanpower.Mux_insertion.select c in
  let base = sel.Scanpower.Mux_insertion.critical_delay_ps in
  List.iter
    (fun dff ->
      let d =
        Sta.delay_with_penalty c
          ~penalties:[ (dff, sel.Scanpower.Mux_insertion.mux_penalty_ps) ]
      in
      Alcotest.(check bool) "would slow down" true (d > base +. 1e-6))
    sel.Scanpower.Mux_insertion.blocked

let check_critical_path_cells_blocked () =
  (* a flip-flop that launches the critical path can never take a mux *)
  let c = mapped "s344" in
  let t = Sta.analyze c in
  let path = Sta.critical_path t in
  let sel = Scanpower.Mux_insertion.select c in
  match path with
  | first :: _ when Gate.equal_kind (Circuit.node c first).Circuit.kind Gate.Dff ->
    Alcotest.(check bool) "launching dff blocked" true
      (List.mem first sel.Scanpower.Mux_insertion.blocked)
  | _ -> () (* critical path launches from a primary input *)

let prop_strategies_agree_on_generated =
  QCheck.Test.make ~name:"naive = slack-based on generated circuits" ~count:10
    (QCheck.make QCheck.Gen.(pair (int_range 1 300) (int_range 4 16)))
    (fun (seed, n_ff) ->
      let c =
        Circuits.generate
          { Circuits.name = "mux-prop"; n_pi = 6; n_po = 4; n_ff; n_gates = 100; seed }
      in
      let naive = Scanpower.Mux_insertion.select ~strategy:Scanpower.Mux_insertion.Naive c in
      let slack =
        Scanpower.Mux_insertion.select ~strategy:Scanpower.Mux_insertion.Slack_based c
      in
      List.sort compare naive.Scanpower.Mux_insertion.muxable
      = List.sort compare slack.Scanpower.Mux_insertion.muxable)

let suite =
  [
    Alcotest.test_case "strategies agree" `Quick check_strategies_agree;
    Alcotest.test_case "partition complete" `Quick check_partition_is_complete;
    Alcotest.test_case "muxable preserve delay" `Quick check_muxable_preserve_delay;
    Alcotest.test_case "all muxes at once preserve delay" `Quick
      check_all_muxes_preserve_delay;
    Alcotest.test_case "blocked would slow down" `Quick check_blocked_would_slow_down;
    Alcotest.test_case "critical-path cells blocked" `Quick
      check_critical_path_cells_blocked;
    QCheck_alcotest.to_alcotest prop_strategies_agree_on_generated;
  ]
