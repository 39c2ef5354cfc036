open Netlist

let m_blocked = Telemetry.Counter.make "core.controlled_pattern.blocked_gates"
let m_failed = Telemetry.Counter.make "core.controlled_pattern.failed_gates"
let m_tns_rounds = Telemetry.Counter.make "core.controlled_pattern.tns_rounds"

type outcome = {
  values : Logic.t array;
  controlled : int list;
  assignment : (int * Logic.t) list;
  blocked_gates : int;
  failed_gates : int;
  residual_transition_nodes : int;
}

let find ?(backtrack_limit = 50) ~direction c ~muxable =
  let controlled = Array.to_list (Circuit.inputs c) @ muxable in
  let muxed = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace muxed id ()) muxable;
  let seeds =
    Array.to_list (Circuit.dffs c)
    |> List.filter (fun id -> not (Hashtbl.mem muxed id))
  in
  let engine =
    Justify.create ~backtrack_limit c ~controllable:controlled ~direction
  in
  (* with no source assigned every line is X: already fully implied *)
  let values = Array.make (Circuit.node_count c) Logic.X in
  let failed = Array.make (Circuit.node_count c) false in
  let blocked_gates = ref 0 and failed_gates = ref 0 in
  let values = ref values in
  let continue_ = ref true in
  while !continue_ do
    Telemetry.Counter.inc m_tns_rounds;
    let state = Tns.compute c ~values:!values ~seeds ~failed in
    match Tns.pick_largest_load c state.Tns.tgs with
    | None -> continue_ := false
    | Some mc_tg ->
      let nd = Circuit.node c mc_tg in
      let cv =
        match Gate.controlling_value nd.kind with
        | Some v -> v
        | None -> assert false (* TGS only holds AND/NAND/OR/NOR gates *)
      in
      (* don't-care inputs other than the transition nodes themselves *)
      let candidates =
        Array.to_list nd.fanins
        |> List.filter (fun f ->
               (not state.Tns.tns.(f)) && Logic.equal !values.(f) Logic.X)
        |> Justify.order_candidates engine ~value:cv
      in
      let rec try_inputs = function
        | [] -> false
        | input :: rest ->
          (match Justify.justify engine ~values:!values input cv with
          | Some assigned ->
            values := assigned;
            true
          | None -> try_inputs rest)
      in
      if try_inputs candidates then incr blocked_gates
      else begin
        incr failed_gates;
        failed.(mc_tg) <- true
      end
  done;
  let final = Tns.compute c ~values:!values ~seeds ~failed in
  Telemetry.Counter.add m_blocked !blocked_gates;
  Telemetry.Counter.add m_failed !failed_gates;
  {
    values = !values;
    controlled;
    assignment = List.map (fun id -> (id, !values.(id))) controlled;
    blocked_gates = !blocked_gates;
    failed_gates = !failed_gates;
    residual_transition_nodes = Tns.transition_count final;
  }
