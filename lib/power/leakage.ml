open Netlist

let cell_of c id = Techmap.Mapper.cell_of_node c id

let gate_state c values id =
  let nd = Circuit.node c id in
  let s = ref 0 in
  Array.iteri (fun i f -> if values.(f) then s := !s lor (1 lsl i)) nd.fanins;
  !s

let gate_leakage_na c values id =
  match cell_of c id with
  | None -> 0.0
  | Some cell ->
    Techlib.Leakage_table.leakage_na cell ~state:(gate_state c values id)

let tables c =
  Array.init (Circuit.node_count c) (fun id ->
      match cell_of c id with
      | None -> [||]
      | Some cell -> Techlib.Leakage_table.row cell)

let total_leakage_uw c values =
  if Array.length values <> Circuit.node_count c then
    invalid_arg "Leakage.total_leakage_uw: value array length mismatch";
  let na = ref 0.0 in
  Array.iter
    (fun nd ->
      if Gate.is_logic nd.Circuit.kind then
        na := !na +. gate_leakage_na c values nd.Circuit.id)
    (Circuit.nodes c);
  (* nA x V = nW; convert to uW *)
  !na *. Techlib.Leakage_table.vdd /. 1000.0

(* Probability of a packed fanin state under independent per-node
   one-probabilities. *)
let state_probability nd p_one state =
  let p = ref 1.0 in
  Array.iteri
    (fun i f ->
      let p1 = p_one.(f) in
      p := !p *. (if state land (1 lsl i) <> 0 then p1 else 1.0 -. p1))
    nd.Circuit.fanins;
  !p

let expected_gate_leakage_na c ~p_one id =
  match cell_of c id with
  | None -> 0.0
  | Some cell ->
    let nd = Circuit.node c id in
    let n = Techlib.Leakage_table.n_states cell in
    let e = ref 0.0 in
    for state = 0 to n - 1 do
      e :=
        !e
        +. state_probability nd p_one state
           *. Techlib.Leakage_table.leakage_na cell ~state
    done;
    !e

let expected_total_leakage_uw c ~p_one =
  let na = ref 0.0 in
  Array.iter
    (fun nd ->
      if Gate.is_logic nd.Circuit.kind then
        na := !na +. expected_gate_leakage_na c ~p_one nd.Circuit.id)
    (Circuit.nodes c);
  !na *. Techlib.Leakage_table.vdd /. 1000.0
