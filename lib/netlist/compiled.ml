let op_input = 0
let op_dff = 1
let op_output = 2
let op_buf = 3
let op_not = 4
let op_and = 5
let op_nand = 6
let op_or = 7
let op_nor = 8
let op_xor = 9
let op_xnor = 10

let opcode_of_kind = function
  | Gate.Input -> op_input
  | Gate.Dff -> op_dff
  | Gate.Output -> op_output
  | Gate.Buf -> op_buf
  | Gate.Not -> op_not
  | Gate.And -> op_and
  | Gate.Nand -> op_nand
  | Gate.Or -> op_or
  | Gate.Nor -> op_nor
  | Gate.Xor -> op_xor
  | Gate.Xnor -> op_xnor

let kind_of_opcode op =
  if op = op_input then Gate.Input
  else if op = op_dff then Gate.Dff
  else if op = op_output then Gate.Output
  else if op = op_buf then Gate.Buf
  else if op = op_not then Gate.Not
  else if op = op_and then Gate.And
  else if op = op_nand then Gate.Nand
  else if op = op_or then Gate.Or
  else if op = op_nor then Gate.Nor
  else if op = op_xor then Gate.Xor
  else if op = op_xnor then Gate.Xnor
  else invalid_arg "Compiled.kind_of_opcode"

type t = {
  circuit : Circuit.t;
  n : int;
  opcode : int array;
  fanin_off : int array;
  fanin : int array;
  fanout_off : int array;
  fanout : int array;
  topo : int array;
  eval_order : int array;
  eval_code : int array;
      (* per [eval_order] position: opcode * 8 + fanin count, or
         opcode * 8 for 8 fanins or more *)
  levels : int array;
  max_level : int;
  level_population : int array;
  (* structural preprocessing for fault propagation: observables,
     fanout-free regions and propagation dominators (all with respect
     to the combinational core — DFF nodes never propagate) *)
  observable : bool array;
  reaches_observable : bool array;
  ffr_stem : int array;
  stems : int array;
  idom : int array;
  idom_depth : int array;
}

(* A fault effect is observed at primary-output marker nodes and at
   flip-flop D pins (the fanin of every DFF node). *)
let compute_observable n opcode fanin_off fanin =
  let observable = Array.make n false in
  for id = 0 to n - 1 do
    if opcode.(id) = op_output then observable.(id) <- true
    else if opcode.(id) = op_dff then observable.(fanin.(fanin_off.(id))) <- true
  done;
  observable

(* Fanout-free regions: walk single-fanout chains to the first node
   with zero or several fanout edges (the fanout array carries one
   entry per fanin edge, so a node feeding two pins of one gate counts
   as two edges and is a stem), or whose unique consumer is a DFF (the
   effect is observed at the D pin and never propagates through it).
   Processing in reverse topological order sees every consumer before
   its producers. *)
let compute_ffr n opcode fanout_off fanout topo =
  let ffr_stem = Array.make n (-1) in
  for k = n - 1 downto 0 do
    let id = topo.(k) in
    let lo = fanout_off.(id) and hi = fanout_off.(id + 1) in
    if hi - lo <> 1 then ffr_stem.(id) <- id
    else begin
      let succ = fanout.(lo) in
      if opcode.(succ) = op_dff then ffr_stem.(id) <- id
      else ffr_stem.(id) <- ffr_stem.(succ)
    end
  done;
  let n_stems = ref 0 in
  Array.iteri (fun id s -> if s = id then incr n_stems) ffr_stem;
  let stems = Array.make !n_stems 0 in
  let pos = ref 0 in
  for id = 0 to n - 1 do
    if ffr_stem.(id) = id then begin
      stems.(!pos) <- id;
      incr pos
    end
  done;
  (ffr_stem, stems)

(* Immediate dominators of the propagation DAG: [idom.(id)] is the one
   node every path from [id] to an observable passes through first
   (beyond [id] itself). Observation itself is modelled as a virtual
   exit node with id [n]: [idom.(id) = n] means the effect fans out
   irreconvergently (or [id] is itself observable), [-1] means no
   observable is reachable at all. Computed in reverse topological
   order as the nearest common ancestor, in the growing dominator
   tree, of all propagating successors. *)
let compute_idom n opcode fanout_off fanout topo observable =
  let exit_id = n in
  let reaches = Array.make n false in
  let idom = Array.make (n + 1) (-1) in
  let depth = Array.make (n + 1) 0 in
  idom.(exit_id) <- exit_id;
  let rec nca a b =
    if a = b then a
    else if depth.(a) >= depth.(b) then nca idom.(a) b
    else nca a idom.(b)
  in
  for k = n - 1 downto 0 do
    let id = topo.(k) in
    if observable.(id) then begin
      reaches.(id) <- true;
      idom.(id) <- exit_id;
      depth.(id) <- 1
    end
    else begin
      let d = ref (-1) in
      for i = fanout_off.(id) to fanout_off.(id + 1) - 1 do
        let succ = fanout.(i) in
        if opcode.(succ) <> op_dff && reaches.(succ) then
          d := if !d = -1 then succ else nca !d succ
      done;
      if !d >= 0 then begin
        reaches.(id) <- true;
        idom.(id) <- !d;
        depth.(id) <- depth.(!d) + 1
      end
    end
  done;
  (reaches, idom, depth)

let of_circuit c =
  let nodes = Circuit.nodes c in
  let n = Array.length nodes in
  let opcode = Array.make n 0 in
  let fanin_off = Array.make (n + 1) 0 in
  let fanout_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let nd = nodes.(i) in
    opcode.(i) <- opcode_of_kind nd.Circuit.kind;
    fanin_off.(i + 1) <- fanin_off.(i) + Array.length nd.Circuit.fanins;
    fanout_off.(i + 1) <- fanout_off.(i) + Array.length nd.Circuit.fanouts
  done;
  let fanin = Array.make fanin_off.(n) 0 in
  let fanout = Array.make fanout_off.(n) 0 in
  for i = 0 to n - 1 do
    let nd = nodes.(i) in
    Array.iteri (fun p f -> fanin.(fanin_off.(i) + p) <- f) nd.Circuit.fanins;
    Array.iteri (fun p s -> fanout.(fanout_off.(i) + p) <- s) nd.Circuit.fanouts
  done;
  let topo = Array.copy (Circuit.topo_order c) in
  let levels = Array.init n (Circuit.level c) in
  let max_level = Array.fold_left max 0 levels in
  let level_population = Array.make (max_level + 1) 0 in
  let n_eval = ref 0 in
  Array.iter
    (fun id ->
      if opcode.(id) > op_dff then begin
        incr n_eval;
        level_population.(levels.(id)) <- level_population.(levels.(id)) + 1
      end)
    topo;
  let eval_order = Array.make !n_eval 0 in
  let pos = ref 0 in
  Array.iter
    (fun id ->
      if opcode.(id) > op_dff then begin
        eval_order.(!pos) <- id;
        incr pos
      end)
    topo;
  let eval_code =
    Array.map
      (fun id ->
        let arity = fanin_off.(id + 1) - fanin_off.(id) in
        (opcode.(id) * 8) + if arity < 8 then arity else 0)
      eval_order
  in
  let observable = compute_observable n opcode fanin_off fanin in
  let ffr_stem, stems = compute_ffr n opcode fanout_off fanout topo in
  let reaches_observable, idom, idom_depth =
    compute_idom n opcode fanout_off fanout topo observable
  in
  {
    circuit = c;
    n;
    opcode;
    fanin_off;
    fanin;
    fanout_off;
    fanout;
    topo;
    eval_order;
    eval_code;
    levels;
    max_level;
    level_population;
    observable;
    reaches_observable;
    ffr_stem;
    stems;
    idom;
    idom_depth;
  }

let circuit t = t.circuit
let node_count t = t.n
let opcode t = t.opcode
let fanin_off t = t.fanin_off
let fanin t = t.fanin
let fanout_off t = t.fanout_off
let fanout t = t.fanout
let topo t = t.topo
let eval_order t = t.eval_order
let levels t = t.levels
let max_level t = t.max_level
let level_population t = t.level_population
let is_source t id = t.opcode.(id) <= op_dff
let is_logic t id = t.opcode.(id) >= op_buf
let observable t = t.observable
let reaches_observable t = t.reaches_observable
let ffr_stem t = t.ffr_stem
let stems t = t.stems
let idom t = t.idom
let idom_depth t = t.idom_depth
let exit_id t = t.n

(* Tail-recursive folds over a CSR fanin slice: no closures, no
   intermediate arrays. *)

let rec all_true (v : bool array) (fa : int array) i hi =
  i >= hi || (v.(fa.(i)) && all_true v fa (i + 1) hi)

let rec any_true (v : bool array) (fa : int array) i hi =
  i < hi && (v.(fa.(i)) || any_true v fa (i + 1) hi)

let rec parity (v : bool array) (fa : int array) i hi acc =
  if i >= hi then acc else parity v fa (i + 1) hi (acc <> v.(fa.(i)))

let eval_bool t (values : bool array) id =
  let lo = t.fanin_off.(id) and hi = t.fanin_off.(id + 1) in
  let fa = t.fanin in
  let op = t.opcode.(id) in
  if op = op_and then all_true values fa lo hi
  else if op = op_nand then not (all_true values fa lo hi)
  else if op = op_or then any_true values fa lo hi
  else if op = op_nor then not (any_true values fa lo hi)
  else if op = op_not then not values.(fa.(lo))
  else if op = op_buf || op = op_output then values.(fa.(lo))
  else if op = op_xor then parity values fa lo hi false
  else if op = op_xnor then not (parity values fa lo hi false)
  else invalid_arg "Compiled.eval_bool: source node"

let rec fold_and3 (v : Logic.t array) (fa : int array) i hi acc =
  if i >= hi then acc
  else fold_and3 v fa (i + 1) hi (Logic.( &&& ) acc v.(fa.(i)))

let rec fold_or3 (v : Logic.t array) (fa : int array) i hi acc =
  if i >= hi then acc
  else fold_or3 v fa (i + 1) hi (Logic.( ||| ) acc v.(fa.(i)))

let rec fold_xor3 (v : Logic.t array) (fa : int array) i hi acc =
  if i >= hi then acc
  else fold_xor3 v fa (i + 1) hi (Logic.xor acc v.(fa.(i)))

let eval_logic t (values : Logic.t array) id =
  let lo = t.fanin_off.(id) and hi = t.fanin_off.(id + 1) in
  let fa = t.fanin in
  let op = t.opcode.(id) in
  if op = op_and then fold_and3 values fa lo hi Logic.One
  else if op = op_nand then Logic.lnot (fold_and3 values fa lo hi Logic.One)
  else if op = op_or then fold_or3 values fa lo hi Logic.Zero
  else if op = op_nor then Logic.lnot (fold_or3 values fa lo hi Logic.Zero)
  else if op = op_not then Logic.lnot values.(fa.(lo))
  else if op = op_buf || op = op_output then values.(fa.(lo))
  else if op = op_xor then fold_xor3 values fa lo hi Logic.Zero
  else if op = op_xnor then Logic.lnot (fold_xor3 values fa lo hi Logic.Zero)
  else invalid_arg "Compiled.eval_logic: source node"

let eval_logics t (values : Logic.t array) =
  let eo = t.eval_order in
  for k = 0 to Array.length eo - 1 do
    let id = eo.(k) in
    values.(id) <- eval_logic t values id
  done

(* Native-int lanes: every fold stays in a register, nothing boxes. *)

let lanes = 63

let rec fold_and_lanes (w : int array) (fa : int array) i hi acc =
  if i >= hi then acc else fold_and_lanes w fa (i + 1) hi (acc land w.(fa.(i)))

let rec fold_or_lanes (w : int array) (fa : int array) i hi acc =
  if i >= hi then acc else fold_or_lanes w fa (i + 1) hi (acc lor w.(fa.(i)))

let rec fold_xor_lanes (w : int array) (fa : int array) i hi acc =
  if i >= hi then acc else fold_xor_lanes w fa (i + 1) hi (acc lxor w.(fa.(i)))

(* the folds, for every gate without a straight-line case in
   [eval_lanes] *)
let eval_lanes_generic t (words : int array) id =
  let fa = t.fanin in
  let lo = t.fanin_off.(id) and hi = t.fanin_off.(id + 1) in
  let op = t.opcode.(id) in
  if op = op_nand then lnot (fold_and_lanes words fa lo hi (-1))
  else if op = op_nor then lnot (fold_or_lanes words fa lo hi 0)
  else if op = op_not then lnot words.(fa.(lo))
  else if op = op_and then fold_and_lanes words fa lo hi (-1)
  else if op = op_or then fold_or_lanes words fa lo hi 0
  else if op = op_buf || op = op_output then words.(fa.(lo))
  else if op = op_xor then fold_xor_lanes words fa lo hi 0
  else (* eval_order holds no source, so this is xnor *)
    lnot (fold_xor_lanes words fa lo hi 0)

(* The mapped library's cells (INV, NAND2-4, NOR2-4) are nearly every
   gate the word sweeps evaluate, so each has straight-line code on its
   [eval_code] [code]: pin words in registers, no fold call per pin.
   The literals are [opcode * 8 + fanin count] with [op_not] = 4,
   [op_nand] = 6 and [op_nor] = 8. *)
let[@inline] word t (words : int array) id code =
  let fa = t.fanin and lo = t.fanin_off.(id) in
  match code with
  | 33 -> lnot words.(fa.(lo))
  | 50 -> lnot (words.(fa.(lo)) land words.(fa.(lo + 1)))
  | 51 ->
    lnot (words.(fa.(lo)) land words.(fa.(lo + 1)) land words.(fa.(lo + 2)))
  | 52 ->
    lnot
      (words.(fa.(lo))
      land words.(fa.(lo + 1))
      land words.(fa.(lo + 2))
      land words.(fa.(lo + 3)))
  | 66 -> lnot (words.(fa.(lo)) lor words.(fa.(lo + 1)))
  | 67 -> lnot (words.(fa.(lo)) lor words.(fa.(lo + 1)) lor words.(fa.(lo + 2)))
  | 68 ->
    lnot
      (words.(fa.(lo))
      lor words.(fa.(lo + 1))
      lor words.(fa.(lo + 2))
      lor words.(fa.(lo + 3)))
  | _ -> eval_lanes_generic t words id

let eval_lanes t (words : int array) =
  let eo = t.eval_order and code = t.eval_code in
  for k = 0 to Array.length eo - 1 do
    let id = eo.(k) in
    words.(id) <- word t words id code.(k)
  done

(* Event-driven frames mark [eval_order] positions in a bitmap of 32
   positions per word: position [p] is bit [p land 31] of word
   [p lsr 5]. *)

type events = {
  sources : int array;
  wake_off : int array;
  wake_pairs : int array;
      (* per node, CSR: its consumers' positions, as pairs [word lsl 32
         lor bits] *)
  dirty : int array; (* the positions to evaluate *)
  was : int array; (* the positions active in the last frame *)
  active : int array; (* the last frame's active nodes, sources first *)
  mutable n_active : int;
  mutable evals : int;
  mutable primed : bool; (* a frame has been stepped *)
}

let events t =
  let n = t.n and eo = t.eval_order in
  let n_eval = Array.length eo in
  let n_words = (n_eval + 31) lsr 5 in
  let position = Array.make n (-1) in
  Array.iteri (fun k id -> position.(id) <- k) eo;
  (* per node: its consumers' positions (a flip-flop has none), one
     pair per bitmap word they touch *)
  let bits = Array.make n_words 0 and touched = Array.make n_words 0 in
  let wake_off = Array.make (n + 1) 0 in
  let wake_pairs = Array.make (Array.length t.fanout) 0 in
  let n_pairs = ref 0 in
  for id = 0 to n - 1 do
    let n_touched = ref 0 in
    for j = t.fanout_off.(id) to t.fanout_off.(id + 1) - 1 do
      let p = position.(t.fanout.(j)) in
      if p >= 0 then begin
        let w = p lsr 5 in
        if bits.(w) = 0 then begin
          touched.(!n_touched) <- w;
          incr n_touched
        end;
        bits.(w) <- bits.(w) lor (1 lsl (p land 31))
      end
    done;
    for j = 0 to !n_touched - 1 do
      let w = touched.(j) in
      wake_pairs.(!n_pairs) <- (w lsl 32) lor bits.(w);
      incr n_pairs;
      bits.(w) <- 0
    done;
    wake_off.(id + 1) <- !n_pairs
  done;
  let sources = Array.make (n - n_eval) 0 and at = ref 0 in
  for id = 0 to n - 1 do
    if position.(id) < 0 then begin
      sources.(!at) <- id;
      incr at
    end
  done;
  {
    sources;
    wake_off;
    wake_pairs;
    dirty = Array.make n_words 0;
    was = Array.make n_words 0;
    active = Array.make n 0;
    n_active = 0;
    evals = 0;
    primed = false;
  }

let active ev = ev.active
let active_count ev = ev.n_active
let evaluations ev = ev.evals

(* the index of the one set bit of the 32-bit word [b], by a de Bruijn
   multiply *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@inline] bit_index b = debruijn.(((b * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* mark the consumers of node [id] *)
let[@inline] wake ev id =
  let dirty = ev.dirty and pairs = ev.wake_pairs in
  for j = ev.wake_off.(id) to ev.wake_off.(id + 1) - 1 do
    let p = pairs.(j) in
    let w = p lsr 32 in
    dirty.(w) <- dirty.(w) lor (p land 0xFFFFFFFF)
  done

(* The active nodes of the last frame at the positions [r] of bitmap
   word [wi] back to the broadcast of their final lane, as the lanes
   above it already are. *)
let[@inline] restore t (words : int array) wi r =
  let r = ref r in
  while !r <> 0 do
    let b = !r land - !r in
    r := !r lxor b;
    let id = t.eval_order.((wi lsl 5) + bit_index b) in
    words.(id) <- words.(id) asr (lanes - 1)
  done

(* [x]'s lanes within [mask] that differ from the lane before, lane 0
   from [b]: none when [x] is the broadcast of [b] there *)
let[@inline] lane_changes x b mask = (x lxor ((x lsl 1) lor b)) land mask

(* Evaluate every node and list the active ones. *)
let sweep_all t (words : int array) base mask ev =
  let eo = t.eval_order and active = ev.active and was = ev.was in
  eval_lanes t words;
  ev.evals <- ev.evals + Array.length eo;
  Array.fill was 0 (Array.length was) 0;
  let n = ref ev.n_active in
  for k = 0 to Array.length eo - 1 do
    let id = eo.(k) in
    let a = Bool.to_int (lane_changes words.(id) base.(id) mask <> 0) in
    (* branch-free: the slot past the list takes every node, and only
       an active one is kept *)
    active.(!n) <- id;
    n := !n + a;
    was.(k lsr 5) <- was.(k lsr 5) lor (a lsl (k land 31))
  done;
  ev.n_active <- !n

(* Evaluate the marked positions of bitmap word [wi]: first restore its
   nodes that were active in the last frame, then take its lowest
   marked position each time and mark the consumers of each active
   node, so the marks its nodes make on later positions of the word are
   seen. *)
let sweep_marked t (words : int array) base mask ev wi =
  let eo = t.eval_order and dirty = ev.dirty and active = ev.active in
  let lo = wi lsl 5 and n = ref ev.n_active in
  restore t words wi ev.was.(wi);
  ev.was.(wi) <- 0;
  while dirty.(wi) <> 0 do
    let d = dirty.(wi) in
    let b = d land -d in
    dirty.(wi) <- d lxor b;
    let k = lo + bit_index b in
    let id = eo.(k) in
    let x = word t words id t.eval_code.(k) in
    words.(id) <- x;
    ev.evals <- ev.evals + 1;
    if lane_changes x base.(id) mask <> 0 then begin
      active.(!n) <- id;
      incr n;
      ev.was.(wi) <- ev.was.(wi) lor b;
      wake ev id
    end
  done;
  ev.n_active <- !n

let eval_events t (words : int array) ~base ~count ev =
  if count < 1 || count > lanes then
    invalid_arg "Compiled.eval_events: bad lane count";
  if
    Array.length ev.active <> t.n
    || Array.length ev.dirty <> (Array.length t.eval_order + 31) lsr 5
    || Array.length base <> t.n
  then invalid_arg "Compiled.eval_events: events not sized for this circuit";
  let active = ev.active and was = ev.was in
  let mask = if count = lanes then -1 else (1 lsl count) - 1 in
  (* each source's lanes from [count] up take its final lane, so every
     word evaluated from them does too *)
  let n = ref 0 and sources = ev.sources in
  for i = 0 to Array.length sources - 1 do
    let id = sources.(i) in
    let w = words.(id) land mask in
    let w = w lor (lnot mask land -((w lsr (count - 1)) land 1)) in
    words.(id) <- w;
    if lane_changes w base.(id) mask <> 0 then begin
      active.(!n) <- id;
      incr n
    end
  done;
  ev.n_active <- !n;
  (* The first frame, and a frame whose sources changed in many places,
     evaluates every node in one run: its marks would reach most of
     them, and one by one a node costs two to three times as much. *)
  if (not ev.primed) || 8 * !n > Array.length sources then begin
    sweep_all t words base mask ev;
    ev.primed <- true
  end
  else begin
    for i = 0 to !n - 1 do
      wake ev active.(i)
    done;
    (* Positions only mark later positions, so the words go in order,
       and a word's nodes that were active in the last frame are
       restored before any later word reads them. *)
    for wi = 0 to Array.length was - 1 do
      if ev.dirty.(wi) <> 0 then sweep_marked t words base mask ev wi
      else if was.(wi) <> 0 then begin
        restore t words wi was.(wi);
        was.(wi) <- 0
      end
    done
  end
