open Netlist

(* good and faulty values: 0, 1, or [vx] for unknown *)
let vx = 2

(* path-flag codes *)
let cleared = 0
let set = 1
let open_ = 2

exception Conflict

(* Per-opcode gate description: the input value that decides the
   output alone (-1 for buffers, inverters, markers and XORs, whose
   rule is parity), and the output inversion. *)
let n_opcodes = Compiled.op_xnor + 1
let per_op f = Array.init n_opcodes (fun op -> f (Compiled.kind_of_opcode op))

let controlling =
  per_op (fun k ->
      match Gate.controlling_value k with
      | Some Logic.Zero -> 0
      | Some Logic.One -> 1
      | Some Logic.X | None -> -1)

let inversion = per_op (fun k -> if Gate.inversion k then 1 else 0)

let m_constants = Telemetry.Counter.make "atpg.implication.constants"

(* The constant-line filter: words of fixed-seed random patterns, 63
   per word. A gate that takes both values on them is never probed. *)
let filter_words = 4
let filter_seed = 0x5eed

(* An event [4*id + kind] asks for one rule set at node [id] again:
   the gate rule on the good plane, the gate rule on the faulty plane,
   the rules tying the node's flag to its two values, or the rules
   tying its flag to its fanouts' flags. *)
let ev_good = 0
let ev_faulty = 1
let ev_diff = 2
let ev_path = 3
let event id kind = (id lsl 2) lor kind

type t = {
  opcode : int array;
  fanin_off : int array;
  fanin : int array;
  fanout_off : int array;
  fanout : int array;
  observable : bool array;
  (* a node that reaches no observable has its flag cleared in every
     fault's miter: the dead-end rule's fixpoint, known before any
     fault is armed; such flags are never read *)
  reaches : bool array;
  levels : int array;
  (* the non-source nodes sorted by level, and each one's position
     there ([-1] for a source); [level_start.(l)] is the position of
     the first node at level [l], or past the end *)
  by_level : int array;
  position : int array;
  level_start : int array;
  (* the constant lines: the good value every input vector gives a
     node, or [vx], learned once by [make]. Both planes start every
     fault from it and [undo] returns them to it. *)
  base : int array;
  good : int array;
  (* the faulty plane over every node: a node outside the cone mirrors
     its good value, so a gate rule reads one array per plane *)
  faulty : int array;
  flag : int array; (* cone nodes only *)
  (* per-fault (and, while [make] learns, per-probe) marks, all valid
     when equal to [stamp] *)
  in_cone : int array;
  touched : int array;
  queued : int array; (* per event *)
  mutable stamp : int;
  (* nodes with any value assigned, for the undo *)
  trail : int array;
  mutable trail_len : int;
  (* pending events, first in first out (the shallowest implications
     first, so a contradiction tends to surface after fewer events); a
     ring of [4n] slots, as each event is queued at most once at a time *)
  queue : int array;
  mutable queue_head : int;
  mutable queue_len : int;
  (* the event being examined: each rule set leaves nothing more to
     derive from its own conclusions, so its assignments do not queue
     it again *)
  mutable current : int;
  (* the last position in [by_level] of a node the cone sweep has yet
     to decide *)
  mutable cone_end : int;
  (* the fault under test *)
  mutable out_site : int; (* node whose output line is stuck, or -1 *)
  mutable pin_edge : int; (* CSR fanin slot of the stuck pin, or -1 *)
  mutable stuck : int;
}

let in_cone e id = e.in_cone.(id) = e.stamp

let enqueue e ev =
  if e.queued.(ev) <> e.stamp && ev <> e.current then begin
    e.queued.(ev) <- e.stamp;
    let tail = e.queue_head + e.queue_len in
    let cap = Array.length e.queue in
    e.queue.(if tail >= cap then tail - cap else tail) <- ev;
    e.queue_len <- e.queue_len + 1
  end

let touch e id =
  if e.touched.(id) <> e.stamp then begin
    e.touched.(id) <- e.stamp;
    e.trail.(e.trail_len) <- id;
    e.trail_len <- e.trail_len + 1
  end

(* A good value is read by the good-plane gate rules of the node and
   its fanouts, by the node's flag if it is in the cone, and otherwise
   (as its faulty value too) by the faulty-plane rules of its cone
   fanouts. *)
let assign_good e id v =
  let cur = e.good.(id) in
  if cur = vx then begin
    touch e id;
    e.good.(id) <- v;
    let cone = in_cone e id in
    if cone then enqueue e (event id ev_diff) else e.faulty.(id) <- v;
    enqueue e (event id ev_good);
    for k = e.fanout_off.(id) to e.fanout_off.(id + 1) - 1 do
      let succ = e.fanout.(k) in
      if e.opcode.(succ) > Compiled.op_dff then begin
        enqueue e (event succ ev_good);
        if (not cone) && in_cone e succ then enqueue e (event succ ev_faulty)
      end
    done
  end
  else if cur <> v then raise_notrace Conflict

(* outside the cone the faulty plane is the good plane *)
let assign_faulty e id v =
  if in_cone e id then begin
    let cur = e.faulty.(id) in
    if cur = vx then begin
      touch e id;
      e.faulty.(id) <- v;
      enqueue e (event id ev_faulty);
      enqueue e (event id ev_diff);
      for k = e.fanout_off.(id) to e.fanout_off.(id + 1) - 1 do
        let succ = e.fanout.(k) in
        if e.opcode.(succ) > Compiled.op_dff then enqueue e (event succ ev_faulty)
      done
    end
    else if cur <> v then raise_notrace Conflict
  end
  else assign_good e id v

(* A set flag constrains the node's values and its fanouts' flags; a
   cleared one can only leave a cone fanin without its last way out. *)
let set_flag e id v =
  let cur = e.flag.(id) in
  if cur = open_ then begin
    touch e id;
    e.flag.(id) <- v;
    if v = set then begin
      enqueue e (event id ev_diff);
      enqueue e (event id ev_path)
    end
    else
      for k = e.fanin_off.(id) to e.fanin_off.(id + 1) - 1 do
        let pred = e.fanin.(k) in
        if in_cone e pred then enqueue e (event pred ev_path)
      done
  end
  else if cur <> v then raise_notrace Conflict

(* Forward and backward implication across one gate on one plane. On
   the faulty plane the stuck pin reads the stuck constant and cannot
   take the other value. *)
let read e vals pin k = if k = pin then e.stuck else vals.(e.fanin.(k))

let assign e ~faulty id v =
  if faulty then assign_faulty e id v else assign_good e id v

let assign_input e ~faulty pin k v =
  if k = pin then (if v <> e.stuck then raise_notrace Conflict)
  else assign e ~faulty e.fanin.(k) v

let gate_rule e ~faulty id =
  let vals = if faulty then e.faulty else e.good in
  let pin = if faulty then e.pin_edge else -1 in
  let op = e.opcode.(id) in
  let inv = inversion.(op) and c = controlling.(op) in
  let lo = e.fanin_off.(id) and hi = e.fanin_off.(id + 1) - 1 in
  let out = vals.(id) in
  if c >= 0 then begin
    let n_c = ref 0 and n_x = ref 0 and last_x = ref (-1) in
    for k = lo to hi do
      let v = read e vals pin k in
      if v = c then incr n_c
      else if v = vx then begin
        incr n_x;
        last_x := k
      end
    done;
    if !n_c > 0 then assign e ~faulty id (c lxor inv)
    else if !n_x = 0 then assign e ~faulty id ((1 - c) lxor inv)
    else if out <> vx then
      if out lxor inv <> c then
        for k = lo to hi do
          if read e vals pin k = vx then assign_input e ~faulty pin k (1 - c)
        done
      else if !n_x = 1 then assign_input e ~faulty pin !last_x c
  end
  else begin
    let parity = ref inv and n_x = ref 0 and last_x = ref (-1) in
    for k = lo to hi do
      let v = read e vals pin k in
      if v = vx then begin
        incr n_x;
        last_x := k
      end
      else parity := !parity lxor v
    done;
    if !n_x = 0 then assign e ~faulty id !parity
    else if !n_x = 1 && out <> vx then
      assign_input e ~faulty pin !last_x (out lxor !parity)
  end

(* A set flag forces a difference at the node; equal values clear it. *)
let diff_rule e id =
  let g = e.good.(id) and f = e.faulty.(id) in
  if e.flag.(id) = set then begin
    if g <> vx then assign_faulty e id (1 - g)
    else if f <> vx then assign_good e id (1 - f)
  end
  else if g <> vx && g = f then set_flag e id cleared

(* A path that is not yet observed must continue through a cone
   fanout (a non-DFF fanout outside the cone is pinned and never
   differs): the last open one is set, and a node with none left is
   cleared. *)
let path_rule e id =
  let fl = e.flag.(id) in
  if fl <> cleared && not e.observable.(id) then begin
    let n_open = ref 0 and last_open = ref (-1) and any_set = ref false in
    for k = e.fanout_off.(id) to e.fanout_off.(id + 1) - 1 do
      let succ = e.fanout.(k) in
      if in_cone e succ && e.reaches.(succ) then begin
        let f = e.flag.(succ) in
        if f = set then any_set := true
        else if f = open_ then begin
          incr n_open;
          last_open := succ
        end
      end
    done;
    if not !any_set then
      if !n_open = 0 then set_flag e id cleared
      else if !n_open = 1 && fl = set then set_flag e !last_open set
  end

let examine e ev =
  let id = ev lsr 2 and kind = ev land 3 in
  if kind = ev_diff then diff_rule e id
  else if kind = ev_path then path_rule e id
  else if e.opcode.(id) > Compiled.op_dff then
    if kind = ev_good then gate_rule e ~faulty:false id
    else if id <> e.out_site then gate_rule e ~faulty:true id

let propagate e =
  while e.queue_len > 0 do
    let ev = e.queue.(e.queue_head) in
    e.queue_head <-
      (if e.queue_head + 1 = Array.length e.queue then 0 else e.queue_head + 1);
    e.queue_len <- e.queue_len - 1;
    e.queued.(ev) <- -1;
    e.current <- ev;
    examine e ev
  done

let undo e =
  for i = 0 to e.trail_len - 1 do
    let id = e.trail.(i) in
    let b = e.base.(id) in
    e.good.(id) <- b;
    e.faulty.(id) <- b;
    e.flag.(id) <- open_
  done;
  e.trail_len <- 0;
  e.queue_len <- 0;
  e.current <- -1

(* ---------- the cone ---------- *)

(* A cone node's faulty value may differ from its good one, a constant
   line's too: it leaves [base] on the faulty plane. *)
let admit e id =
  e.in_cone.(id) <- e.stamp;
  if e.base.(id) <> vx then begin
    touch e id;
    e.faulty.(id) <- vx
  end

(* a node waiting for its verdict is marked [-stamp] *)
let push_fanouts e id =
  for k = e.fanout_off.(id) to e.fanout_off.(id + 1) - 1 do
    let succ = e.fanout.(k) in
    if e.opcode.(succ) <> Compiled.op_dff then begin
      e.in_cone.(succ) <- -e.stamp;
      if e.position.(succ) > e.cone_end then e.cone_end <- e.position.(succ)
    end
  done

(* The fault's fanout cone, decided node by node in level order from
   the site (a scan of [by_level] up to the last node marked), so each
   gate's fanins have their verdicts before it. The sweep stops at a
   pinned gate: a constant controlling value on a fanin outside the
   cone gives it its good value on the faulty plane too, and leaving it
   out adds only facts already implied. By induction on level, every
   node of the structural cone that is left out has equal values. *)
let collect_cone e site =
  admit e site;
  e.cone_end <- -1;
  push_fanouts e site;
  let p = ref e.level_start.(e.levels.(site) + 1) in
  while !p <= e.cone_end do
    let id = e.by_level.(!p) in
    if e.in_cone.(id) = -e.stamp then begin
      let c = controlling.(e.opcode.(id)) in
      let lo = e.fanin_off.(id) and hi = e.fanin_off.(id + 1) - 1 in
      let pinned = ref false and reads_constant = ref false in
      for k = lo to hi do
        let b = e.base.(e.fanin.(k)) in
        if b <> vx && not (in_cone e e.fanin.(k)) then begin
          reads_constant := true;
          if b = c then pinned := true
        end
      done;
      if !pinned then
        (* a fanout that is never on a path: its cone fanins lose a way
           out *)
        for k = lo to hi do
          if in_cone e e.fanin.(k) then enqueue e (event e.fanin.(k) ev_path)
        done
      else begin
        admit e id;
        (* no event will bring the constant to its faulty rule *)
        if !reads_constant then enqueue e (event id ev_faulty);
        push_fanouts e id
      end
    end;
    incr p
  done

let refutes e fault =
  e.stamp <- e.stamp + 1;
  e.stuck <- (if fault.Fault.stuck then 1 else 0);
  let site = Fault.site_node fault in
  let act_node =
    match fault.Fault.site with
    | Fault.Output_line id ->
      e.out_site <- id;
      e.pin_edge <- -1;
      id
    | Fault.Input_pin (gid, pin) ->
      e.out_site <- -1;
      e.pin_edge <- e.fanin_off.(gid) + pin;
      e.fanin.(e.pin_edge)
  in
  let contradiction =
    try
      if not e.reaches.(site) then raise_notrace Conflict;
      collect_cone e site;
      (* the stuck pin alone may already fix the site's faulty value *)
      enqueue e (event site ev_faulty);
      assign_good e act_node (1 - e.stuck);
      if e.out_site >= 0 then assign_faulty e site e.stuck;
      set_flag e site set;
      propagate e;
      false
    with Conflict -> true
  in
  undo e;
  contradiction

(* ---------- learning the constant lines ---------- *)

(* Asserts good value [v] at [id], with no node in a cone, and implies
   to a fixpoint: false on a contradiction. The values stay until
   [undo] or [commit]. *)
let consistent e id v =
  e.stamp <- e.stamp + 1;
  match
    assign_good e id v;
    propagate e
  with
  | () -> true
  | exception Conflict -> false

(* the implied values join [base]; outside any cone the faulty plane
   already mirrors them *)
let commit e =
  for i = 0 to e.trail_len - 1 do
    let id = e.trail.(i) in
    e.base.(id) <- e.good.(id)
  done;
  e.trail_len <- 0;
  e.current <- -1

(* Failed-literal probing on the good plane, once per circuit (static
   learning in the sense of SOCRATES, for the screen only). A gate that
   held one value on every lane of the filter's patterns is probed for
   the other; when that contradicts [base], the gate is constant at the
   value it held, which joins [base] with all it implies. A value some
   input gives cannot fail a probe, so the filter drops no constant.
   Gates are probed once, in topological order. *)
let learn_constants e cc =
  let n = Array.length e.base in
  let eval_order = Compiled.eval_order cc in
  (* scratch, until the planes are cleared below: the pattern words on
     the faulty plane, and on the good plane the values each gate took
     (bit 0: a lane at 0, bit 1: a lane at 1) *)
  let words = e.faulty and took = e.good in
  Array.fill took 0 n 0;
  let rng = Util.Rng.create filter_seed in
  for _ = 1 to filter_words do
    for id = 0 to n - 1 do
      if e.opcode.(id) <= Compiled.op_dff then
        words.(id) <- Int64.to_int (Util.Rng.next_int64 rng)
    done;
    Compiled.eval_lanes cc words;
    Array.iter
      (fun id ->
        let w = words.(id) in
        took.(id) <- took.(id) lor (if w <> -1 then 1 else 0) lor if w <> 0 then 2 else 0)
      eval_order
  done;
  (* the probes, [2 * id + value] *)
  let probes = Array.make (Array.length eval_order) 0 and n_probes = ref 0 in
  Array.iter
    (fun id ->
      if took.(id) <> 3 then begin
        probes.(!n_probes) <- (id lsl 1) lor if took.(id) = 1 then 1 else 0;
        incr n_probes
      end)
    eval_order;
  Array.fill e.good 0 n vx;
  Array.fill e.faulty 0 n vx;
  for k = 0 to !n_probes - 1 do
    let id = probes.(k) lsr 1 and v = probes.(k) land 1 in
    if e.good.(id) = vx then begin
      let holds = consistent e id v in
      undo e;
      (* the filter saw [1 - v], so implying it cannot contradict *)
      if (not holds) && consistent e id (1 - v) then commit e else undo e
    end
  done

(* a source takes both values, so only gates are ever constant *)
let constants e = Array.fold_left (fun n v -> if v = vx then n else n + 1) 0 e.base

let make cc =
  let n = Compiled.node_count cc in
  let levels = Compiled.levels cc and population = Compiled.level_population cc in
  let n_levels = Array.length population in
  let level_start = Array.make (n_levels + 1) 0 in
  for l = 0 to n_levels - 1 do
    level_start.(l + 1) <- level_start.(l) + population.(l)
  done;
  let by_level = Array.make level_start.(n_levels) 0 and position = Array.make n (-1) in
  let fill = Array.copy level_start in
  Array.iter
    (fun id ->
      let l = levels.(id) in
      by_level.(fill.(l)) <- id;
      position.(id) <- fill.(l);
      fill.(l) <- fill.(l) + 1)
    (Compiled.eval_order cc);
  let e =
    {
      opcode = Compiled.opcode cc;
      fanin_off = Compiled.fanin_off cc;
      fanin = Compiled.fanin cc;
      fanout_off = Compiled.fanout_off cc;
      fanout = Compiled.fanout cc;
      observable = Compiled.observable cc;
      reaches = Compiled.reaches_observable cc;
      levels;
      by_level;
      position;
      level_start;
      base = Array.make n vx;
      good = Array.make n vx;
      faulty = Array.make n vx;
      flag = Array.make n open_;
      in_cone = Array.make n 0;
      touched = Array.make n 0;
      queued = Array.make (4 * n) 0;
      stamp = 0;
      trail = Array.make n 0;
      trail_len = 0;
      queue = Array.make (4 * n) 0;
      queue_head = 0;
      queue_len = 0;
      current = -1;
      cone_end = -1;
      out_site = -1;
      pin_edge = -1;
      stuck = 0;
    }
  in
  Telemetry.Span.with_ ~name:"atpg.learn_constants" (fun () -> learn_constants e cc);
  Telemetry.Counter.add m_constants (constants e);
  e

let constant e id =
  let v = e.base.(id) in
  if v = vx then Logic.X else if v = 1 then Logic.One else Logic.Zero
