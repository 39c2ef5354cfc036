open Netlist

type outcome = {
  pi_pattern : bool array;
  blocked_gates : int;
  failed_gates : int;
  residual_transition_nodes : int;
}

let find ?(seed = 8) c =
  let res =
    Controlled_pattern.find ~direction:Justify.Structural c ~muxable:[]
  in
  let rng = Util.Rng.create seed in
  let pis = Circuit.inputs c in
  let pi_pattern =
    Array.map
      (fun id ->
        match res.Controlled_pattern.values.(id) with
        | Logic.Zero -> false
        | Logic.One -> true
        | Logic.X -> Util.Rng.bool rng)
      pis
  in
  {
    pi_pattern;
    blocked_gates = res.Controlled_pattern.blocked_gates;
    failed_gates = res.Controlled_pattern.failed_gates;
    residual_transition_nodes = res.Controlled_pattern.residual_transition_nodes;
  }
