open Netlist

let m_trials = Telemetry.Counter.make "core.ivc.trials"
let m_samples = Telemetry.Counter.make "core.ivc.leakage_samples"

type outcome = {
  values : Logic.t array;
  candidates_tried : int;
  expected_leakage_uw : float;
}

(* Expected scan-mode leakage of a fully propagated ternary assignment:
   lines still X toggle with the chain, so they are sampled; the same
   pre-drawn sample set scores every candidate. Each sample is a
   two-valued sweep over the compiled arrays, then a node-id-ordered
   sum over the per-gate leakage tables. *)
let expected_leakage comp tables values samples =
  let n = Compiled.node_count comp in
  let fanin_off = Compiled.fanin_off comp and fanin = Compiled.fanin comp in
  let eval_order = Compiled.eval_order comp in
  let free =
    Circuit.sources (Compiled.circuit comp)
    |> Array.to_list
    |> List.filter (fun id -> Logic.equal values.(id) Logic.X)
    |> Array.of_list
  in
  let bools = Array.map (Logic.equal Logic.One) values in
  let score sample_rng =
    Array.iter (fun id -> bools.(id) <- Util.Rng.bool sample_rng) free;
    Array.iter
      (fun id -> bools.(id) <- Compiled.eval_bool comp bools id)
      eval_order;
    let na = ref 0.0 in
    for id = 0 to n - 1 do
      let tbl = tables.(id) in
      if Array.length tbl > 0 then begin
        let s = ref 0 in
        for i = fanin_off.(id) to fanin_off.(id + 1) - 1 do
          if bools.(fanin.(i)) then s := !s lor (1 lsl (i - fanin_off.(id)))
        done;
        na := !na +. tbl.(!s)
      end
    done;
    (* nA x V = nW; convert to uW *)
    !na *. Techlib.Leakage_table.vdd /. 1000.0
  in
  let total = ref 0.0 in
  Telemetry.Counter.add m_samples (List.length samples);
  List.iter (fun seed -> total := !total +. score (Util.Rng.create seed)) samples;
  !total /. float_of_int (List.length samples)

let fill ?(candidates = 32) ?(inner_samples = 16) ~seed c ~values ~controlled =
  let comp = Compiled.of_circuit c in
  let tables = Power.Leakage.tables c in
  let rng = Util.Rng.create seed in
  let free_controlled =
    List.filter (fun id -> Logic.equal values.(id) Logic.X) controlled
  in
  let inner_seeds = List.init (max 1 inner_samples) (fun i -> (seed * 7919) + i) in
  let n_cands = if free_controlled = [] then 1 else max 1 candidates in
  let best = ref None in
  for _ = 1 to n_cands do
    Telemetry.Counter.inc m_trials;
    let trial = Array.copy values in
    List.iter
      (fun id -> trial.(id) <- Logic.of_bool (Util.Rng.bool rng))
      free_controlled;
    Compiled.eval_logics comp trial;
    let cost = expected_leakage comp tables trial inner_seeds in
    match !best with
    | Some (_, best_cost) when best_cost <= cost -> ()
    | Some _ | None -> best := Some (trial, cost)
  done;
  match !best with
  | None -> assert false
  | Some (winner, cost) ->
    {
      values = winner;
      candidates_tried = n_cands;
      expected_leakage_uw = cost;
    }
