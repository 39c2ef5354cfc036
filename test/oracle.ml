(* Independent detection oracle: full-cone stuck-at fault simulation.
   The good machine is swept 63 patterns a word by
   [Compiled.eval_lanes] on the oracle's own words; each fault's
   structural fanout cone is then re-evaluated by the oracle's own
   word evaluator and compared with the good machine at the
   observables (primary outputs and flip-flop D pins). It shares no
   code with [Atpg.Fault_simulation]'s critical path tracing, its
   batch loading or its fault dropping, nor with PODEM's five-valued
   search, so a bug in any of them cannot also hide in the check.
   Every fault is simulated against every batch: nothing is dropped. *)

open Netlist

type t = {
  circuit : Circuit.t;
  comp : Compiled.t;
  observables : int array;
  topo : int array; (* every node, in topological order *)
  topo_pos : int array; (* node id -> its index in [topo] *)
  is_dff : bool array;
  cones : (int, int array) Hashtbl.t; (* site -> cone, topological order *)
  in_cone : int array; (* cone construction: a member iff = [stamp] *)
  mutable stamp : int;
}

let make c =
  let n = Circuit.node_count c in
  let topo = Circuit.topo_order c in
  let topo_pos = Array.make n 0 in
  Array.iteri (fun i id -> topo_pos.(id) <- i) topo;
  let d_pins =
    Array.map (fun id -> (Circuit.node c id).Circuit.fanins.(0)) (Circuit.dffs c)
  in
  {
    circuit = c;
    comp = Compiled.of_circuit c;
    observables = Array.append (Circuit.outputs c) d_pins;
    topo;
    topo_pos;
    is_dff =
      Array.init n (fun id ->
          Gate.equal_kind (Circuit.node c id).Circuit.kind Gate.Dff);
    cones = Hashtbl.create 64;
    in_cone = Array.make n 0;
    stamp = 0;
  }

(* [site] and every node it reaches without passing a flip-flop (a
   fault effect is observed at the D pin, not clocked onward), in
   topological order: one walk down the order from [site], each member
   marking its successors. *)
let cone t site =
  match Hashtbl.find_opt t.cones site with
  | Some nodes -> nodes
  | None ->
    t.stamp <- t.stamp + 1;
    t.in_cone.(site) <- t.stamp;
    let acc = ref [] in
    for k = t.topo_pos.(site) to Array.length t.topo - 1 do
      let id = t.topo.(k) in
      if t.in_cone.(id) = t.stamp then begin
        acc := id :: !acc;
        Array.iter
          (fun succ -> if not t.is_dff.(succ) then t.in_cone.(succ) <- t.stamp)
          (Circuit.node t.circuit id).Circuit.fanouts
      end
    done;
    let nodes = Array.of_list (List.rev !acc) in
    Hashtbl.replace t.cones site nodes;
    nodes

(* Gate [id] over the words of [faulty], 63 patterns at once, with fanin
   [pin] (or none, when -1) reading [stuck] instead. *)
let eval_word t faulty id ~pin ~stuck =
  let nd = Circuit.node t.circuit id in
  let fanins = nd.Circuit.fanins in
  (* the AND, OR and XOR of the inputs; one input's AND is the input *)
  let a = ref (-1) and o = ref 0 and x = ref 0 in
  for i = 0 to Array.length fanins - 1 do
    let v = if i = pin then stuck else faulty.(fanins.(i)) in
    a := !a land v;
    o := !o lor v;
    x := !x lxor v
  done;
  match nd.Circuit.kind with
  | Gate.And | Gate.Buf | Gate.Output -> !a
  | Gate.Nand | Gate.Not -> lnot !a
  | Gate.Or -> !o
  | Gate.Nor -> lnot !o
  | Gate.Xor -> !x
  | Gate.Xnor -> lnot !x
  | Gate.Input | Gate.Dff -> invalid_arg "Oracle.eval_word: a source"

(* Patterns of the loaded batch that detect [f]: the fault's cone is
   evaluated into [faulty] (a copy of [good]), the observables are
   compared, and the cone is restored to the good values. *)
let detection_word t ~good ~faulty (f : Atpg.Fault.t) =
  let stuck = if f.Atpg.Fault.stuck then -1 else 0 in
  let nodes = cone t (Atpg.Fault.site_node f) in
  Array.iter
    (fun id ->
      faulty.(id) <-
        (match f.Atpg.Fault.site with
        | Atpg.Fault.Output_line site when site = id -> stuck
        | Atpg.Fault.Input_pin (gate, pin) when gate = id ->
          eval_word t faulty id ~pin ~stuck
        | _ -> eval_word t faulty id ~pin:(-1) ~stuck))
    nodes;
  let det =
    Array.fold_left
      (fun acc o -> acc lor (faulty.(o) lxor good.(o)))
      0 t.observables
  in
  Array.iter (fun id -> faulty.(id) <- good.(id)) nodes;
  det

(* [hits.(v).(i)]: does vector [v] of [vectors] detect fault [i] of
   [faults]? The vectors run 63 at a time, one per lane. *)
let hits t ~faults ~vectors =
  let faults = Array.of_list faults in
  let sources = Circuit.sources t.circuit in
  let rec batches acc = function
    | [] -> Array.of_list (List.rev acc)
    | vectors ->
      let good = Array.make (Circuit.node_count t.circuit) 0 in
      let rec load lane = function
        | v :: rest when lane < Compiled.lanes ->
          Array.iteri
            (fun pos id ->
              if v.(pos) then good.(id) <- good.(id) lor (1 lsl lane))
            sources;
          load (lane + 1) rest
        | rest -> (lane, rest)
      in
      let count, rest = load 0 vectors in
      Compiled.eval_lanes t.comp good;
      let faulty = Array.copy good in
      let words = Array.map (detection_word t ~good ~faulty) faults in
      let rows =
        List.init count (fun lane ->
            Array.map (fun w -> (w lsr lane) land 1 = 1) words)
      in
      batches (List.rev_append rows acc) rest
  in
  batches [] vectors

let detection_matrix c ~faults ~vectors = hits (make c) ~faults ~vectors

(* [(detected, undetected)], each in the order of [faults]. *)
let split c ~faults ~vectors =
  let rows = detection_matrix c ~faults ~vectors in
  let detected i = Array.exists (fun row -> row.(i)) rows in
  ( List.filteri (fun i _ -> detected i) faults,
    List.filteri (fun i _ -> not (detected i)) faults )

(* The faults of [faults] that some vector of [vectors] detects. *)
let detected_by c ~faults ~vectors = fst (split c ~faults ~vectors)

(* Does [vector] detect [fault]? One compiled form and cone table serve
   every call of the returned function. *)
let detects c =
  let t = make c in
  fun fault vector -> (hits t ~faults:[ fault ] ~vectors:[ vector ]).(0).(0)

(* Every assignment of [n] sources, source [b] = bit [b] of the index. *)
let all_vectors n =
  List.init (1 lsl n) (fun i -> Array.init n (fun b -> i land (1 lsl b) <> 0))
