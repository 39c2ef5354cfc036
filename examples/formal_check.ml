(* Formal back-ends: BDD equivalence checking of every netlist
   transformation in the flow, exact signal probabilities vs the
   analytic propagation, and the glitch factor of the zero-delay power
   model.

     dune exec examples/formal_check.exe -- [circuit]
*)

open Netlist

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "s27" in
  let original = Circuits.by_name name in
  let circuit = Techmap.Mapper.map original in

  Format.printf "== formal equivalence checks on %s@." name;
  Format.printf "technology mapping preserves the functions: %b@."
    (Bdd.Circuit_bdd.equivalent original circuit);

  (* the full proposed transformation chain: map + input reorder *)
  let mux = Scanpower.Mux_insertion.select circuit in
  let cp =
    Scanpower.Controlled_pattern.find
      ~direction:
        (Scanpower.Justify.Leakage_directed (Power.Observability.compute circuit))
      circuit ~muxable:mux.Scanpower.Mux_insertion.muxable
  in
  let filled =
    Scanpower.Ivc.fill ~seed:7 circuit ~values:cp.Scanpower.Controlled_pattern.values
      ~controlled:cp.Scanpower.Controlled_pattern.controlled
  in
  let reordered = Circuit.copy circuit in
  let ro =
    Scanpower.Input_reorder.optimize reordered ~values:filled.Scanpower.Ivc.values
  in
  Format.printf
    "gate input reordering (%d gates permuted) preserves the functions: %b@."
    ro.Scanpower.Input_reorder.gates_reordered
    (Bdd.Circuit_bdd.equivalent circuit reordered);

  (* exact vs analytic probabilities *)
  Format.printf "@.== independence assumption vs exact BDD probabilities@.";
  let sym = Bdd.Circuit_bdd.build circuit in
  let exact = Bdd.Circuit_bdd.probabilities sym () in
  let approx = Power.Observability.compute circuit in
  let worst = ref (0.0, "") in
  Array.iter
    (fun nd ->
      if Gate.is_logic nd.Circuit.kind then begin
        let err =
          Float.abs
            (exact.(nd.Circuit.id)
            -. Power.Observability.probability approx nd.Circuit.id)
        in
        if err > fst !worst then worst := (err, nd.Circuit.name)
      end)
    (Circuit.nodes circuit);
  let err, where = !worst in
  Format.printf "worst one-probability error: %.4f (at %s)@." err where;
  Format.printf "exact expected leakage under random inputs: %.3f uW@."
    (Bdd.Circuit_bdd.exact_expected_leakage_uw sym ());

  (* glitch factor *)
  Format.printf "@.== zero-delay vs transport-delay activity@.";
  let timing = Sta.analyze circuit in
  let gsim = Sta.Glitch_sim.create timing in
  Sta.Glitch_sim.init gsim (fun _ -> false);
  (* the zero-delay count: one 63-wide lane per input change, each
     lane's settled state diffed against the one before; lane 0 of the
     first frame is the all-zero start, stepped uncounted *)
  let sources = Circuit.sources circuit in
  let psim = Sim.Packed_sim.create (Compiled.of_circuit circuit) in
  let words = Sim.Packed_sim.words psim in
  let lane = ref 1 and from = ref 1 in
  let flush () =
    Sim.Packed_sim.step psim ~from:!from ~count:!lane;
    Array.iter (fun id -> words.(id) <- 0) sources;
    lane := 0;
    from := 0
  in
  let rng = Util.Rng.create 2 in
  let current = Array.make (Circuit.node_count circuit) false in
  for _ = 1 to 300 do
    let changes = ref [] in
    Array.iter
      (fun id ->
        if Util.Rng.bool rng then begin
          current.(id) <- not current.(id);
          changes := (id, current.(id)) :: !changes
        end;
        if current.(id) then words.(id) <- words.(id) lor (1 lsl !lane))
      sources;
    ignore (Sta.Glitch_sim.apply gsim !changes);
    incr lane;
    if !lane = Compiled.lanes then flush ()
  done;
  if !lane > 0 then flush ();
  let glitchy = Sta.Glitch_sim.total_transitions gsim in
  let settled = Sim.Packed_sim.total_toggles psim in
  Format.printf
    "300 random input changes: %d settled transitions, %d with glitches (factor %.2fx)@."
    settled glitchy
    (float_of_int glitchy /. float_of_int (max 1 settled))
