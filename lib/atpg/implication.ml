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
  good : int array;
  (* the faulty plane over every node: a node outside the cone mirrors
     its good value, so a gate rule reads one array per plane *)
  faulty : int array;
  flag : int array; (* cone nodes only *)
  (* per-fault marks, all valid when equal to [stamp] *)
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
  cone : int array; (* breadth-first worklist of the cone sweep *)
  (* the fault under test *)
  mutable out_site : int; (* node whose output line is stuck, or -1 *)
  mutable pin_edge : int; (* CSR fanin slot of the stuck pin, or -1 *)
  mutable stuck : int;
}

let make cc =
  let n = Compiled.node_count cc in
  {
    opcode = Compiled.opcode cc;
    fanin_off = Compiled.fanin_off cc;
    fanin = Compiled.fanin cc;
    fanout_off = Compiled.fanout_off cc;
    fanout = Compiled.fanout cc;
    observable = Compiled.observable cc;
    reaches = Compiled.reaches_observable cc;
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
    cone = Array.make n 0;
    out_site = -1;
    pin_edge = -1;
    stuck = 0;
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

(* A path that is not yet observed must continue through a fanout
   (every non-DFF fanout of a cone node is in the cone): the last open
   one is set, and a node with none left is cleared. *)
let path_rule e id =
  let fl = e.flag.(id) in
  if fl <> cleared && not e.observable.(id) then begin
    let n_open = ref 0 and last_open = ref (-1) and any_set = ref false in
    for k = e.fanout_off.(id) to e.fanout_off.(id + 1) - 1 do
      let succ = e.fanout.(k) in
      if e.opcode.(succ) > Compiled.op_dff && e.reaches.(succ) then begin
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

(* The structural fanout cone, breadth-first from the site. *)
let collect_cone e site =
  e.in_cone.(site) <- e.stamp;
  e.cone.(0) <- site;
  let len = ref 1 and i = ref 0 in
  while !i < !len do
    let id = e.cone.(!i) in
    for k = e.fanout_off.(id) to e.fanout_off.(id + 1) - 1 do
      let succ = e.fanout.(k) in
      if e.opcode.(succ) <> Compiled.op_dff && not (in_cone e succ) then begin
        e.in_cone.(succ) <- e.stamp;
        e.cone.(!len) <- succ;
        incr len
      end
    done;
    incr i
  done

let undo e =
  for i = 0 to e.trail_len - 1 do
    let id = e.trail.(i) in
    e.good.(id) <- vx;
    e.faulty.(id) <- vx;
    e.flag.(id) <- open_
  done;
  e.trail_len <- 0;
  e.queue_len <- 0;
  e.current <- -1

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
  collect_cone e site;
  let contradiction =
    try
      if not e.reaches.(site) then raise_notrace Conflict;
      (* the stuck pin alone may already fix the site's faulty value *)
      enqueue e (event site ev_faulty);
      assign_good e act_node (1 - e.stuck);
      if e.out_site >= 0 then assign_faulty e site e.stuck;
      set_flag e site set;
      while e.queue_len > 0 do
        let ev = e.queue.(e.queue_head) in
        e.queue_head <-
          (if e.queue_head + 1 = Array.length e.queue then 0 else e.queue_head + 1);
        e.queue_len <- e.queue_len - 1;
        e.queued.(ev) <- -1;
        e.current <- ev;
        examine e ev
      done;
      false
    with Conflict -> true
  in
  undo e;
  contradiction
