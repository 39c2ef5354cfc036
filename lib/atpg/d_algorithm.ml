open Netlist
module F = Logic.Five

type result =
  | Test of Logic.t array
  | Untestable
  | Aborted

exception Conflict
exception Out_of_budget

type t = {
  circuit : Circuit.t;
  fault : Fault.t;
  assigned : F.five option array; (* decisions / requirements per node *)
  values : F.five array; (* implied values *)
  observables : int list;
  mutable budget : int;
}

(* Value of node [id] from its fanins' implied values, with the
   engine's fault injected (same injection as the PODEM engine). *)
let eval_node e id =
  let c = e.circuit in
  let { Fault.site; stuck } = e.fault in
  let stuck_l = Logic.of_bool stuck in
  let nd = Circuit.node c id in
  let v =
    if Gate.is_source nd.kind then (
      match e.assigned.(id) with
      | Some v -> v
      | None -> F.FX)
    else begin
      let vs = Array.map (fun f -> e.values.(f)) nd.fanins in
      (match site with
      | Fault.Input_pin (gid, pin) when gid = id ->
        vs.(pin) <- F.make ~good:(F.good vs.(pin)) ~faulty:stuck_l
      | Fault.Input_pin _ | Fault.Output_line _ -> ());
      Gate.eval_five nd.kind vs
    end
  in
  match site with
  | Fault.Output_line fid when fid = id ->
    F.make ~good:(F.good v) ~faulty:stuck_l
  | Fault.Output_line _ | Fault.Input_pin _ -> v

(* Recompute every implied value; an assigned node keeps its assignment
   but a definite forward evaluation that disagrees is a conflict. *)
let imply e =
  Array.iter
    (fun id ->
      let computed = eval_node e id in
      match e.assigned.(id) with
      | None -> e.values.(id) <- computed
      | Some req ->
        if F.equal computed F.FX then e.values.(id) <- req
        else if F.equal computed req then e.values.(id) <- req
        else raise Conflict)
    (Circuit.topo_order e.circuit)

let detected e =
  List.exists (fun id -> F.is_d_or_dbar e.values.(id)) e.observables

(* Gates whose required value is not yet produced by their inputs. *)
let j_frontier e =
  let c = e.circuit in
  let pending = ref [] in
  Array.iter
    (fun id ->
      match e.assigned.(id) with
      | Some _ when Gate.is_logic (Circuit.node c id).Circuit.kind ->
        if F.equal (eval_node e id) F.FX then pending := id :: !pending
      | Some _ | None -> ())
    (Circuit.topo_order c);
  List.rev !pending

(* As in the PODEM engine, the faulted branch's D is invisible on the
   stem for input-pin faults and must be reconstructed. *)
let sees_d e id =
  let nd = Circuit.node e.circuit id in
  Array.exists (fun f -> F.is_d_or_dbar e.values.(f)) nd.Circuit.fanins
  ||
  match e.fault.Fault.site with
  | Fault.Input_pin (gid, pin) when gid = id ->
    let driver = nd.Circuit.fanins.(pin) in
    F.is_d_or_dbar
      (F.make
         ~good:(F.good e.values.(driver))
         ~faulty:(Logic.of_bool e.fault.Fault.stuck))
  | Fault.Input_pin _ | Fault.Output_line _ -> false

let m_faults = Telemetry.Counter.make "atpg.d_algorithm.faults"
let m_frontier = Telemetry.Counter.make "atpg.d_algorithm.frontier_gates"
let g_frontier_max = Telemetry.Gauge.make "atpg.d_algorithm.max_frontier"

let d_frontier e =
  let c = e.circuit in
  let frontier = ref [] in
  Array.iter
    (fun nd ->
      if
        Gate.is_logic nd.Circuit.kind
        && F.equal e.values.(nd.Circuit.id) F.FX
        && e.assigned.(nd.Circuit.id) = None
        && sees_d e nd.Circuit.id
      then frontier := nd.Circuit.id :: !frontier)
    (Circuit.nodes c);
  let result = List.rev !frontier in
  if Telemetry.enabled () then begin
    let size = List.length result in
    Telemetry.Counter.add m_frontier size;
    Telemetry.Gauge.observe_max g_frontier_max (float_of_int size)
  end;
  result

(* Trail-based undo: [assign] records what it touched. *)
let assign e trail id v =
  (match e.assigned.(id) with
  | Some old when not (F.equal old v) -> raise Conflict
  | Some _ -> ()
  | None ->
    e.assigned.(id) <- Some v;
    trail := id :: !trail)

let undo e trail mark =
  let rec go () =
    match !trail with
    | id :: rest when List.length !trail > mark ->
      e.assigned.(id) <- None;
      trail := rest;
      go ()
    | _ -> ()
  in
  go ()

(* Alternative input assignments that justify required good value [v]
   at gate [g]: a list of assignment lists. *)
let justification_choices e g v_good =
  let c = e.circuit in
  let nd = Circuit.node c g in
  let v_inner = if Gate.inversion nd.kind then not v_good else v_good in
  let x_inputs =
    Array.to_list nd.fanins
    |> List.filter (fun f -> Logic.equal (F.good e.values.(f)) Logic.X)
  in
  match nd.kind with
  | Gate.Buf | Gate.Not ->
    [ [ (nd.fanins.(0), F.of_ternary (Logic.of_bool v_inner)) ] ]
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
    let cv =
      match Gate.controlling_value nd.kind with
      | Some Logic.Zero -> false
      | Some Logic.One -> true
      | Some Logic.X | None -> assert false
    in
    (* inner value for AND family is the conjunction polarity: output
       inner equals cv iff some input carries cv *)
    let inner_when_controlled =
      match nd.kind with
      | Gate.And | Gate.Nand -> false (* a 0 input makes the AND part 0 *)
      | Gate.Or | Gate.Nor -> true
      | Gate.Input | Gate.Dff | Gate.Output | Gate.Buf | Gate.Not
      | Gate.Xor | Gate.Xnor ->
        assert false
    in
    if v_inner = inner_when_controlled then
      (* one controlling input suffices: one alternative per X input *)
      List.map (fun f -> [ (f, F.of_ternary (Logic.of_bool cv)) ]) x_inputs
    else
      (* every input must be non-controlling: a single forced choice *)
      [ List.map (fun f -> (f, F.of_ternary (Logic.of_bool (not cv)))) x_inputs ]
  | Gate.Xor | Gate.Xnor ->
    (* fix one X input each way; the requirement stays pending until
       the parity resolves *)
    (match x_inputs with
    | [] -> []
    | f :: _ -> [ [ (f, F.F0) ]; [ (f, F.F1) ] ])
  | Gate.Input | Gate.Dff | Gate.Output -> []

let run ?(backtrack_limit = 2000) c fault =
  Telemetry.Counter.inc m_faults;
  let observables =
    Array.to_list (Circuit.outputs c)
    @ (Array.to_list (Circuit.dffs c)
      |> List.map (fun id -> (Circuit.node c id).Circuit.fanins.(0)))
  in
  let e =
    {
      circuit = c;
      fault;
      assigned = Array.make (Circuit.node_count c) None;
      values = Array.make (Circuit.node_count c) F.FX;
      observables;
      budget = backtrack_limit;
    }
  in
  let trail = ref [] in
  (* Fault activation: the line at the fault site must carry the
     opposite of the stuck value in the good machine. *)
  let activation_node =
    match fault.Fault.site with
    | Fault.Output_line id -> id
    | Fault.Input_pin (gid, pin) -> (Circuit.node c gid).Circuit.fanins.(pin)
  in
  let activation_good = not fault.Fault.stuck in
  let site_value =
    match fault.Fault.site with
    | Fault.Output_line _ ->
      (* the node itself shows D/D' once its good rail is justified *)
      F.make
        ~good:(Logic.of_bool activation_good)
        ~faulty:(Logic.of_bool fault.Fault.stuck)
    | Fault.Input_pin _ ->
      (* the driver line is healthy; only the branch sees the fault *)
      F.of_ternary (Logic.of_bool activation_good)
  in
  let spend () =
    e.budget <- e.budget - 1;
    if e.budget < 0 then raise Out_of_budget
  in
  let rec try_alternatives alternatives =
    match alternatives with
    | [] -> false
    | assignments :: rest ->
      spend ();
      let mark = List.length !trail in
      (try
         List.iter (fun (id, v) -> assign e trail id v) assignments;
         imply e;
         if search () then true
         else begin
           undo e trail mark;
           try_alternatives rest
         end
       with Conflict ->
         undo e trail mark;
         try_alternatives rest)
  and search () =
    (* imply already ran without conflict when we get here *)
    let j = j_frontier e in
    if detected e then
      match j with
      | [] -> true
      | g :: _ ->
        let v_good =
          match e.assigned.(g) with
          | Some v ->
            (match Logic.to_bool (F.good v) with
            | Some b -> b
            | None -> true)
          | None -> assert false
        in
        try_alternatives (justification_choices e g v_good)
    else begin
      (* propagate: for each D-frontier gate, set its X side inputs to
         the non-controlling value *)
      match d_frontier e with
      | [] ->
        (* not detected, nothing to drive: if justification work
           remains it may still unblock propagation *)
        (match j with
        | [] -> false
        | g :: _ ->
          let v_good =
            match e.assigned.(g) with
            | Some v ->
              (match Logic.to_bool (F.good v) with
              | Some b -> b
              | None -> true)
            | None -> assert false
          in
          try_alternatives (justification_choices e g v_good))
      | frontier ->
        let drive g =
          let nd = Circuit.node c g in
          let ncv =
            match Gate.controlling_value nd.kind with
            | Some cv -> F.of_ternary (Logic.lnot cv)
            | None -> F.F1 (* XOR-type: any definite side value works *)
          in
          Array.to_list nd.fanins
          |> List.filter_map (fun f ->
                 if Logic.equal (F.good e.values.(f)) Logic.X then
                   Some (f, ncv)
                 else None)
        in
        try_alternatives (List.map drive frontier)
    end
  in
  let outcome =
    try
      assign e trail activation_node site_value;
      imply e;
      if search () then `Found else `Exhausted
    with
    | Conflict -> `Exhausted
    | Out_of_budget -> `Aborted
  in
  match outcome with
  | `Found ->
    (* the test cube is the good-rail value of every source *)
    let cube =
      Array.map (fun id -> F.good e.values.(id)) (Circuit.sources c)
    in
    Test cube
  | `Exhausted -> Untestable
  | `Aborted -> Aborted

let generate ?backtrack_limit c fault = run ?backtrack_limit c fault
