open Netlist

let m_trials = Telemetry.Counter.make "core.ivc.trials"
let m_samples = Telemetry.Counter.make "core.ivc.leakage_samples"

type outcome = {
  values : Logic.t array;
  candidates_tried : int;
  expected_leakage_uw : float;
}

(* The sources still X once the controlled inputs are filled keep
   toggling with the chain, so their values are sampled. They are the
   same sources for every candidate, so one fill draws them once:
   block [b] holds, per free source, the word of its values in samples
   [63b] to [63b + 62], one sample per lane, each sample from its own
   seeded stream. *)
let draw_free free seeds =
  let n = Array.length seeds in
  Array.init
    ((n + Compiled.lanes - 1) / Compiled.lanes)
    (fun b ->
      let first = b * Compiled.lanes in
      let drawn = Array.make (Array.length free) 0 in
      for lane = 0 to min Compiled.lanes (n - first) - 1 do
        let sample_rng = Util.Rng.create seeds.(first + lane) in
        Array.iteri
          (fun j _ ->
            if Util.Rng.bool sample_rng then
              drawn.(j) <- drawn.(j) lor (1 lsl lane))
          free
      done;
      drawn)

(* Expected scan-mode leakage of a fully propagated ternary assignment
   over [n_samples] samples of the free sources ([blocks], from
   [draw_free]): one two-valued sweep ({!Compiled.eval_lanes}) evaluates
   63 samples at once, then each sample's leakage is a node-id-ordered
   sum over the per-gate leakage tables, kept per lane. [words] (one per
   node) and [na] (one per lane) are scratch. *)
let expected_leakage comp tables ~words ~na ~free ~blocks ~n_samples values =
  let n = Compiled.node_count comp in
  let fanin_off = Compiled.fanin_off comp and fanin = Compiled.fanin comp in
  let sources = Circuit.sources (Compiled.circuit comp) in
  let total = ref 0.0 in
  let score_block b =
    let k = min Compiled.lanes (n_samples - (b * Compiled.lanes)) in
    let all = if k = Compiled.lanes then -1 else (1 lsl k) - 1 in
    Array.iter
      (fun id ->
        words.(id) <- (if Logic.equal values.(id) Logic.One then all else 0))
      sources;
    Array.iteri (fun j id -> words.(id) <- blocks.(b).(j)) free;
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
  Telemetry.Counter.add m_samples n_samples;
  Array.iteri (fun b _ -> score_block b) blocks;
  !total /. float_of_int n_samples

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
  let filled = Array.make (Array.length values) false in
  List.iter (fun id -> filled.(id) <- true) free_controlled;
  let free =
    Circuit.sources c
    |> Array.to_list
    |> List.filter (fun id -> Logic.equal values.(id) Logic.X && not filled.(id))
    |> Array.of_list
  in
  let blocks = draw_free free inner_seeds in
  let n_samples = Array.length inner_seeds in
  let n_cands = if free_controlled = [] then 1 else max 1 candidates in
  let best = ref None in
  for _ = 1 to n_cands do
    Telemetry.Counter.inc m_trials;
    let trial = Array.copy values in
    List.iter
      (fun id -> trial.(id) <- Logic.of_bool (Util.Rng.bool rng))
      free_controlled;
    Compiled.eval_logics comp trial;
    let cost =
      expected_leakage comp tables ~words ~na ~free ~blocks ~n_samples trial
    in
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
