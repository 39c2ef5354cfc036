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
   pre-drawn sample set scores every candidate. The samples go 63 to a
   word, one per lane: one two-valued sweep ({!Compiled.eval_lanes})
   evaluates them all, then each sample's leakage is a node-id-ordered
   sum over the per-gate leakage tables, kept per lane. [words] (one per
   node) and [na] (one per lane) are scratch. *)
let expected_leakage comp tables ~words ~na values seeds =
  let n = Compiled.node_count comp in
  let fanin_off = Compiled.fanin_off comp and fanin = Compiled.fanin comp in
  let sources = Circuit.sources (Compiled.circuit comp) in
  let free =
    sources |> Array.to_list
    |> List.filter (fun id -> Logic.equal values.(id) Logic.X)
    |> Array.of_list
  in
  let total = ref 0.0 in
  (* the [k] samples from [seeds.(first)] on, one per lane *)
  let score_word first k =
    let all = if k = Compiled.lanes then -1 else (1 lsl k) - 1 in
    Array.iter
      (fun id ->
        words.(id) <- (if Logic.equal values.(id) Logic.One then all else 0))
      sources;
    for lane = 0 to k - 1 do
      let sample_rng = Util.Rng.create seeds.(first + lane) in
      Array.iter
        (fun id ->
          if Util.Rng.bool sample_rng then
            words.(id) <- words.(id) lor (1 lsl lane))
        free
    done;
    Compiled.eval_lanes comp words;
    Array.fill na 0 k 0.0;
    for id = 0 to n - 1 do
      let tbl = tables.(id) in
      if Array.length tbl > 0 then begin
        let lo = fanin_off.(id) and hi = fanin_off.(id + 1) in
        for lane = 0 to k - 1 do
          let s = ref 0 in
          for i = lo to hi - 1 do
            s := !s lor (((words.(fanin.(i)) lsr lane) land 1) lsl (i - lo))
          done;
          na.(lane) <- na.(lane) +. tbl.(!s)
        done
      end
    done;
    (* nA x V = nW; convert to uW *)
    for lane = 0 to k - 1 do
      total := !total +. (na.(lane) *. Techlib.Leakage_table.vdd /. 1000.0)
    done
  in
  Telemetry.Counter.add m_samples (Array.length seeds);
  let first = ref 0 in
  while !first < Array.length seeds do
    let k = min Compiled.lanes (Array.length seeds - !first) in
    score_word !first k;
    first := !first + k
  done;
  !total /. float_of_int (Array.length seeds)

let fill ?(candidates = 32) ?(inner_samples = 16) ~seed c ~values ~controlled =
  let comp = Compiled.of_circuit c in
  let tables = Power.Leakage.tables c in
  let words = Array.make (Compiled.node_count comp) 0 in
  let na = Array.make Compiled.lanes 0.0 in
  let rng = Util.Rng.create seed in
  let free_controlled =
    List.filter (fun id -> Logic.equal values.(id) Logic.X) controlled
  in
  let inner_seeds =
    Array.init (max 1 inner_samples) (fun i -> (seed * 7919) + i)
  in
  let n_cands = if free_controlled = [] then 1 else max 1 candidates in
  let best = ref None in
  for _ = 1 to n_cands do
    Telemetry.Counter.inc m_trials;
    let trial = Array.copy values in
    List.iter
      (fun id -> trial.(id) <- Logic.of_bool (Util.Rng.bool rng))
      free_controlled;
    Compiled.eval_logics comp trial;
    let cost = expected_leakage comp tables ~words ~na trial inner_seeds in
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
