open Netlist
module F = Logic.Five

(* hot-path instrumentation: plain int bumps behind the global
   telemetry switch, so the search itself is never perturbed *)
let m_faults = Telemetry.Counter.make "atpg.podem.faults"
let m_decisions = Telemetry.Counter.make "atpg.podem.decisions"
let m_backtracks = Telemetry.Counter.make "atpg.podem.backtracks"
let m_aborted = Telemetry.Counter.make "atpg.podem.aborted"
let m_refuted = Telemetry.Counter.make "atpg.podem.refuted"
let m_evals = Telemetry.Counter.make "atpg.podem.evals"
let m_iteration_aborts = Telemetry.Counter.make "atpg.podem.iteration_aborts"

type result =
  | Test of Logic.t array
  | Untestable
  | Aborted

(* Five-valued codes: 0 = F0, 1 = F1, 2 = X, 3 = D, 4 = D'; a code
   [>= 3] carries a fault effect. *)
let vx = 2

let five_of_code = [| F.F0; F.F1; F.FX; F.D; F.Dbar |]

let code_of_five = function
  | F.F0 -> 0
  | F.F1 -> 1
  | F.FX -> 2
  | F.D -> 3
  | F.Dbar -> 4

(* Every table is built from the [Logic.Five] operators themselves, so
   the fold keeps their FX-collapse semantics exactly (a pair with one
   unknown half is X, which makes the fold order observable). *)
let not_tbl = Array.map (fun v -> code_of_five (F.lnot v)) five_of_code

let good_tbl =
  Array.map
    (fun v ->
      match F.good v with
      | Logic.Zero -> 0
      | Logic.One -> 1
      | Logic.X -> vx)
    five_of_code

(* AND, OR and XOR 5x5 tables back to back: [fold_tbl.(base + 5*acc + v)] *)
let fold_tbl =
  Array.concat
    (List.map
       (fun op ->
         Array.init 25 (fun i ->
             code_of_five (op five_of_code.(i / 5) five_of_code.(i mod 5))))
       [ F.land_; F.lor_; F.lxor_ ])

(* [inject_tbl.(5*stuck + v)]: keep the good half of [v], force the
   faulty half to the stuck value *)
let inject_tbl =
  Array.init 10 (fun i ->
      code_of_five
        (F.make ~good:(F.good five_of_code.(i mod 5)) ~faulty:(Logic.of_bool (i >= 5))))

(* Per-opcode gate description: which table to fold, its seed, and the
   output inversion. A one-input gate is an AND of one fanin (AND with
   F1 is the identity on every five-valued code). *)
let n_opcodes = Compiled.op_xnor + 1
let per_op f = Array.init n_opcodes (fun op -> f (Compiled.kind_of_opcode op))

let fold_base =
  per_op (function
    | Gate.Or | Gate.Nor -> 25
    | Gate.Xor | Gate.Xnor -> 50
    | Gate.Input | Gate.Dff | Gate.Output | Gate.Buf | Gate.Not | Gate.And
    | Gate.Nand ->
      0)

let fold_seed =
  per_op (function
    | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor -> 0
    | Gate.Input | Gate.Dff | Gate.Output | Gate.Buf | Gate.Not | Gate.And
    | Gate.Nand ->
      1)

let inverting = per_op Gate.inversion

let controlling =
  per_op (fun k ->
      match Gate.controlling_value k with
      | Some Logic.Zero -> 0
      | Some Logic.One -> 1
      | Some Logic.X | None -> -1)

(* The code of gate [op] for the fanin codes [v 0 .. v (n-1)], folded
   pin by pin in fanin order: the reference every table is built from. *)
let fold_codes op n v =
  let acc = ref fold_seed.(op) in
  for k = 0 to n - 1 do
    acc := fold_tbl.(fold_base.(op) + (5 * !acc) + v k)
  done;
  if inverting.(op) then not_tbl.(!acc) else !acc

(* Whole-gate tables, one per logic opcode and arity 1..[max_table_arity]
   that the gate kind allows: [gate_tbl.(table_base.(5*op + n) + i)] is
   the code of an [n]-input gate whose fanin codes are the base-5 digits
   of [i], fanin 0 most significant. [table_base] is -1 where there is
   no table, which includes every source opcode. *)
let max_table_arity = 4

let rec pow5 n = if n = 0 then 1 else 5 * pow5 (n - 1)

let table_base, gate_tbl =
  let base = Array.make (5 * n_opcodes) (-1) and tables = ref [] and size = ref 0 in
  for op = Compiled.op_output to n_opcodes - 1 do
    let kind = Compiled.kind_of_opcode op in
    let widest = Option.value (Gate.max_fanin kind) ~default:max_table_arity in
    for n = Int.max 1 (Gate.min_fanin kind) to Int.min widest max_table_arity do
      base.((5 * op) + n) <- !size;
      tables :=
        Array.init (pow5 n) (fun i ->
            fold_codes op n (fun k -> i / pow5 (n - 1 - k) mod 5))
        :: !tables;
      size := !size + pow5 n
    done
  done;
  (base, Array.concat (List.rev !tables))

(* Offset of the table of an [n]-input gate [op], or -1. *)
let table_of op n = if n > max_table_arity then -1 else table_base.((5 * op) + n)

let gate_table kind vs =
  let t = table_of (Compiled.opcode_of_kind kind) (Array.length vs) in
  if t < 0 then None
  else Some five_of_code.(gate_tbl.(t + Array.fold_left (fun i v -> (5 * i) + code_of_five v) 0 vs))

type t = {
  screen : Implication.t;
  opcode : int array;
  table : int array; (* node id -> offset of its gate table, or -1 *)
  fanin_off : int array;
  fanin : int array;
  fanout_off : int array;
  fanout : int array;
  topo_pos : int array; (* node id -> topological index *)
  levels : int array;
  observable : bool array;
  source_pos : int array; (* node id -> source position, -1 off sources *)
  (* backtrace cost of driving a node to 0 / 1: SCOAP controllability
     with a guide, circuit level otherwise *)
  cost0 : int array;
  cost1 : int array;
  values : int array; (* node id -> five-valued code *)
  assigned : int array; (* source position -> 0 / 1 / X code *)
  (* every node whose value left X, in order; popping an entry returns
     its node to X. Each node is on it at most once (see [set]). *)
  trail : int array;
  mutable trail_len : int;
  (* the nodes carrying D or D', in trail order: a pop removes them
     from the top, so this is a stack too *)
  d_nodes : int array;
  mutable d_len : int;
  mutable obs_d : int; (* observable nodes carrying D or D' *)
  (* level-bucketed propagation queue, flat: level [l] owns
     [bucket.(bucket_off.(l)) ..], sized by the level population *)
  bucket : int array;
  bucket_off : int array;
  bucket_len : int array;
  pending : bool array;
  mutable queued : int;
  (* stamped scratch for the X-path check *)
  visited : int array;
  mutable stamp : int;
  (* decision stack: each source is on it at most once *)
  dec_node : int array;
  dec_value : int array;
  dec_flipped : bool array;
  dec_mark : int array; (* trail length before the decision *)
  mutable depth : int;
  (* the fault under test *)
  mutable out_site : int; (* node whose output line is stuck, or -1 *)
  mutable pin_edge : int; (* CSR fanin slot of the stuck pin, or -1 *)
  mutable pin_gate : int; (* gate of the stuck pin, or -1 *)
  mutable stuck : int;
  mutable act_node : int; (* line whose good value activates the fault *)
  (* per-fault search state *)
  mutable iterations : int;
  mutable backtracks : int;
  mutable aborted : bool;
  mutable evals : int; (* node evaluations during implication *)
}

let make ?guide c =
  let cc = Compiled.of_circuit c in
  let n = Compiled.node_count cc in
  let topo = Compiled.topo cc in
  let topo_pos = Array.make n 0 in
  Array.iteri (fun p id -> topo_pos.(id) <- p) topo;
  let sources = Circuit.sources c in
  let source_pos = Array.make n (-1) in
  Array.iteri (fun pos id -> source_pos.(id) <- pos) sources;
  let cost0, cost1 =
    match guide with
    | Some scoap -> (Array.init n (Scoap.cc0 scoap), Array.init n (Scoap.cc1 scoap))
    | None -> (Compiled.levels cc, Compiled.levels cc)
  in
  let population = Compiled.level_population cc in
  let n_levels = Array.length population in
  let bucket_off = Array.make (n_levels + 1) 0 in
  for l = 0 to n_levels - 1 do
    bucket_off.(l + 1) <- bucket_off.(l) + population.(l)
  done;
  let n_sources = Array.length sources in
  let opcode = Compiled.opcode cc and fanin_off = Compiled.fanin_off cc in
  let table =
    Array.init n (fun id -> table_of opcode.(id) (fanin_off.(id + 1) - fanin_off.(id)))
  in
  {
    screen = Implication.make cc;
    opcode;
    table;
    fanin_off;
    fanin = Compiled.fanin cc;
    fanout_off = Compiled.fanout_off cc;
    fanout = Compiled.fanout cc;
    topo_pos;
    levels = Compiled.levels cc;
    observable = Compiled.observable cc;
    source_pos;
    cost0;
    cost1;
    values = Array.make n vx;
    assigned = Array.make n_sources vx;
    trail = Array.make n 0;
    trail_len = 0;
    d_nodes = Array.make n 0;
    d_len = 0;
    obs_d = 0;
    bucket = Array.make bucket_off.(n_levels) 0;
    bucket_off;
    bucket_len = Array.make n_levels 0;
    pending = Array.make n false;
    queued = 0;
    visited = Array.make n 0;
    stamp = 0;
    dec_node = Array.make n_sources 0;
    dec_value = Array.make n_sources 0;
    dec_flipped = Array.make n_sources false;
    dec_mark = Array.make n_sources 0;
    depth = 0;
    out_site = -1;
    pin_edge = -1;
    pin_gate = -1;
    stuck = 0;
    act_node = 0;
    iterations = 0;
    backtracks = 0;
    aborted = false;
    evals = 0;
  }

(* Record a value change. Implication only ever refines: every table
   is monotone in the order X < known, and the trail pops back to a
   state implied from a subset of the current assignments before a
   source is set again, so a change is always X -> known. Only X gates
   are evaluated (see [schedule_fanouts]), so the check can fire only
   for a source; for gates the monotonicity is enforced by the
   test_podem case "five-valued evaluation is monotone in X", which
   checks every gate table, the pin fold and the stuck-value injection
   on every tuple. *)
let[@inline] set e id v =
  if e.values.(id) <> vx then invalid_arg "Podem.set: overwrites a known value";
  e.values.(id) <- v;
  e.trail.(e.trail_len) <- id;
  e.trail_len <- e.trail_len + 1;
  if v >= 3 then begin
    e.d_nodes.(e.d_len) <- id;
    e.d_len <- e.d_len + 1;
    if e.observable.(id) then e.obs_d <- e.obs_d + 1
  end

(* Return every node set since the trail held [mark] entries to X. *)
let pop_to e mark =
  for i = e.trail_len - 1 downto mark do
    let id = e.trail.(i) in
    if e.values.(id) >= 3 then begin
      e.d_len <- e.d_len - 1;
      if e.observable.(id) then e.obs_d <- e.obs_d - 1
    end;
    e.values.(id) <- vx
  done;
  e.trail_len <- mark

(* Arm the engine for one fault. With every source X every node is X
   (an injected stuck value only fixes the faulty half), so popping the
   previous fault's whole trail replaces the full implication. *)
let reset e fault =
  pop_to e 0;
  Array.fill e.assigned 0 (Array.length e.assigned) vx;
  e.depth <- 0;
  e.iterations <- 0;
  e.backtracks <- 0;
  e.aborted <- false;
  e.evals <- 0;
  e.stuck <- (if fault.Fault.stuck then 1 else 0);
  match fault.Fault.site with
  | Fault.Output_line id ->
    e.out_site <- id;
    e.pin_edge <- -1;
    e.pin_gate <- -1;
    e.act_node <- id
  | Fault.Input_pin (gid, pin) ->
    e.out_site <- -1;
    e.pin_edge <- e.fanin_off.(gid) + pin;
    e.pin_gate <- gid;
    e.act_node <- e.fanin.(e.pin_edge)

(* Value of one node under the armed fault. Allocates nothing. A gate
   with a table is one lookup; the faulted gate, whose stuck pin is
   injected on the way in, and wider gates fold pin by pin. *)
let[@inline] eval_node e id =
  let op = e.opcode.(id) in
  let v =
    if op <= Compiled.op_dff then e.assigned.(e.source_pos.(id))
    else if e.table.(id) >= 0 && id <> e.pin_gate then begin
      let i = ref 0 in
      for k = e.fanin_off.(id) to e.fanin_off.(id + 1) - 1 do
        i := (5 * !i) + e.values.(e.fanin.(k))
      done;
      gate_tbl.(e.table.(id) + !i)
    end
    else begin
      let base = fold_base.(op) in
      let stuck5 = 5 * e.stuck in
      let acc = ref fold_seed.(op) in
      for k = e.fanin_off.(id) to e.fanin_off.(id + 1) - 1 do
        let v = e.values.(e.fanin.(k)) in
        let v = if k = e.pin_edge then inject_tbl.(stuck5 + v) else v in
        acc := fold_tbl.(base + (5 * !acc) + v)
      done;
      if inverting.(op) then not_tbl.(!acc) else !acc
    end
  in
  if id = e.out_site then inject_tbl.((5 * e.stuck) + v) else v

(* Queue the logic-gate fanouts of [id] that are still X. A known node
   is settled: implication only turns X into known (see [set]), so
   evaluating it again could only return the code it holds. *)
let[@inline] schedule_fanouts e id =
  for k = e.fanout_off.(id) to e.fanout_off.(id + 1) - 1 do
    let succ = e.fanout.(k) in
    if e.values.(succ) = vx && (not e.pending.(succ)) && e.opcode.(succ) > Compiled.op_dff
    then begin
      e.pending.(succ) <- true;
      let l = e.levels.(succ) in
      e.bucket.(e.bucket_off.(l) + e.bucket_len.(l)) <- succ;
      e.bucket_len.(l) <- e.bucket_len.(l) + 1;
      e.queued <- e.queued + 1
    end
  done

(* Incremental implication after one source changed: level by level,
   so every node is evaluated once after all its changed fanins. A
   level only schedules higher ones, so its bucket is fixed while it
   drains. *)
let imply_from e source =
  let v = eval_node e source in
  e.evals <- e.evals + 1;
  if v <> e.values.(source) then begin
    set e source v;
    schedule_fanouts e source;
    let l = ref 1 in
    while e.queued > 0 do
      let off = e.bucket_off.(!l) and len = e.bucket_len.(!l) in
      e.bucket_len.(!l) <- 0;
      e.queued <- e.queued - len;
      e.evals <- e.evals + len;
      for i = off to off + len - 1 do
        let id = e.bucket.(i) in
        e.pending.(id) <- false;
        let v = eval_node e id in
        if v <> e.values.(id) then begin
          set e id v;
          schedule_fanouts e id
        end
      done;
      incr l
    done
  end

let detected e = e.obs_d > 0

let activation_value e = 1 - e.stuck
let act_good e = good_tbl.(e.values.(e.act_node))

(* Whether gate [id] sees a D on some input. For an input-pin fault the
   D lives on the faulted branch only: the driver line itself stays
   healthy, so the stem value never shows it — the injected pin has to
   be reconstructed here, otherwise the faulted gate never enters the
   frontier and the search wrongly declares such faults untestable. *)
let sees_d e id =
  let seen = ref false and k = ref e.fanin_off.(id) in
  let hi = e.fanin_off.(id + 1) in
  while (not !seen) && !k < hi do
    let v = e.values.(e.fanin.(!k)) in
    if v >= 3 || (!k = e.pin_edge && inject_tbl.((5 * e.stuck) + v) >= 3) then
      seen := true;
    incr k
  done;
  !seen

(* X-path check: can a D at [id] reach an observable through X-valued
   nodes? Depth-first over the stamped fanout DAG. *)
let rec reachable e id =
  if e.observable.(id) then true
  else if e.visited.(id) = e.stamp then false
  else begin
    e.visited.(id) <- e.stamp;
    through_fanouts e e.fanout_off.(id) e.fanout_off.(id + 1)
  end

and through_fanouts e k hi =
  k < hi
  && begin
    let succ = e.fanout.(k) in
    (e.opcode.(succ) <> Compiled.op_dff
    && (e.observable.(succ) || (e.values.(succ) = vx && reachable e succ)))
    || through_fanouts e (k + 1) hi
  end

(* A D-frontier gate: a logic gate with an X output and a D on an
   input. *)
let frontier_gate e id =
  e.opcode.(id) >= Compiled.op_buf && e.values.(id) = vx && sees_d e id

(* Propagation objective, encoded [2*node + value], or -1: the
   topologically first D-frontier gate asks for the non-controlling
   value on its first X input, provided some frontier gate still has an
   X-path to an observable. Every frontier gate is a fanout of a
   D-carrying node or, for a pin fault, the faulted gate itself. *)
let propagation_objective e =
  e.stamp <- e.stamp + 1;
  let first = ref (-1) and path = ref false in
  if e.pin_gate >= 0 && frontier_gate e e.pin_gate then begin
    first := e.pin_gate;
    path := reachable e e.pin_gate
  end;
  for i = 0 to e.d_len - 1 do
    let d = e.d_nodes.(i) in
    for k = e.fanout_off.(d) to e.fanout_off.(d + 1) - 1 do
      let g = e.fanout.(k) in
      if frontier_gate e g then begin
        if !first < 0 || e.topo_pos.(g) < e.topo_pos.(!first) then first := g;
        if not !path then path := reachable e g
      end
    done
  done;
  if !first < 0 || not !path then -1
  else begin
    let g = !first in
    let f = ref (-1) and k = ref e.fanin_off.(g) in
    while !f < 0 && !k < e.fanin_off.(g + 1) do
      if e.values.(e.fanin.(!k)) = vx then f := e.fanin.(!k);
      incr k
    done;
    if !f < 0 then -1
    else begin
      let cv = controlling.(e.opcode.(g)) in
      (2 * !f) + if cv >= 0 then 1 - cv else 1
    end
  end

(* Backtrace an objective to an unassigned source, following X inputs
   and accounting for gate inversions: the cheapest X input when one
   controlling input suffices (or the gate has no controlling value),
   the costliest when all inputs are needed. Returns [2*source + value]
   or -1. *)
let rec backtrace e id v =
  let op = e.opcode.(id) in
  if op <= Compiled.op_dff then (2 * id) + v
  else begin
    let v_inner = if inverting.(op) then 1 - v else v in
    let cost = if v_inner = 0 then e.cost0 else e.cost1 in
    let hardest = controlling.(op) >= 0 && controlling.(op) <> v_inner in
    let best = ref (-1) in
    for k = e.fanin_off.(id) to e.fanin_off.(id + 1) - 1 do
      let f = e.fanin.(k) in
      if e.values.(f) = vx then
        if !best < 0 then best := f
        else if hardest then (if cost.(f) > cost.(!best) then best := f)
        else if cost.(f) < cost.(!best) then best := f
    done;
    if !best < 0 then -1 else backtrace e !best v_inner
  end

(* Undo flipped decisions and flip the most recent unflipped one; false
   when the space is exhausted or the backtrack limit is hit. Both pop
   the trail back to where the decision found it, which restores the
   values implied without it; a flip then implies its new value from
   there. *)
let rec backtrack e limit =
  if e.depth = 0 then false
  else begin
    let top = e.depth - 1 in
    let src = e.dec_node.(top) in
    let pos = e.source_pos.(src) in
    if e.dec_flipped.(top) then begin
      pop_to e e.dec_mark.(top);
      e.assigned.(pos) <- vx;
      e.depth <- top;
      backtrack e limit
    end
    else begin
      e.backtracks <- e.backtracks + 1;
      Telemetry.Counter.inc m_backtracks;
      if e.backtracks > limit then begin
        e.aborted <- true;
        false
      end
      else begin
        pop_to e e.dec_mark.(top);
        let v' = 1 - e.dec_value.(top) in
        e.assigned.(pos) <- v';
        e.dec_value.(top) <- v';
        e.dec_flipped.(top) <- true;
        imply_from e src;
        true
      end
    end
  end

(* Search iterations per fault. *)
let iteration_limit = 400

(* One frontier scan per iteration serves both the dead-end check and
   the objective; a global iteration cap bounds the work spent on hard
   (usually redundant) faults. True when the assignment detects. *)
let rec explore e ~backtrack_limit =
  e.iterations <- e.iterations + 1;
  if e.iterations > iteration_limit then begin
    Telemetry.Counter.inc m_iteration_aborts;
    e.aborted <- true;
    false
  end
  else if detected e then true
  else if act_good e = e.stuck then
    backtrack e backtrack_limit && explore e ~backtrack_limit
  else begin
    let obj =
      if act_good e <> activation_value e then (2 * e.act_node) + activation_value e
      else propagation_objective e
    in
    let decision = if obj < 0 then -1 else backtrace e (obj / 2) (obj mod 2) in
    if decision < 0 then
      backtrack e backtrack_limit && explore e ~backtrack_limit
    else begin
      Telemetry.Counter.inc m_decisions;
      let src = decision / 2 and v = decision mod 2 in
      e.assigned.(e.source_pos.(src)) <- v;
      e.dec_node.(e.depth) <- src;
      e.dec_value.(e.depth) <- v;
      e.dec_flipped.(e.depth) <- false;
      e.dec_mark.(e.depth) <- e.trail_len;
      e.depth <- e.depth + 1;
      imply_from e src;
      explore e ~backtrack_limit
    end
  end

let logic_of_code = [| Logic.Zero; Logic.One; Logic.X |]

let search ?(backtrack_limit = 100) e fault =
  reset e fault;
  let found = explore e ~backtrack_limit in
  Telemetry.Counter.add m_evals e.evals;
  if found then Test (Array.map (fun v -> logic_of_code.(v)) e.assigned)
  else if e.aborted then begin
    Telemetry.Counter.inc m_aborted;
    Aborted
  end
  else Untestable

(* A refuted fault can only end the search as [Untestable] or
   [Aborted], neither of which yields a cube: the screen changes no
   test, only how much work a redundant fault costs. *)
let generate ?backtrack_limit e fault =
  Telemetry.Counter.inc m_faults;
  if Implication.refutes e.screen fault then begin
    Telemetry.Counter.inc m_refuted;
    Untestable
  end
  else search ?backtrack_limit e fault
