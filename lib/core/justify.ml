open Netlist

let m_attempts = Telemetry.Counter.make "core.justify.attempts"
let m_backtracks = Telemetry.Counter.make "core.justify.backtracks"

(* backtracks one {!justify} call may take before it gives up *)
let backtrack_limit = 50

type direction =
  | Leakage_directed of Power.Observability.t
  | Structural

type t = {
  comp : Compiled.t;
  controllable : bool array;
  inverting : bool array;
  direction : direction;
  (* per-gate fanins in backtrace order, aligned with the compiled
     fanin offsets: [toward_one] when the gate's inputs are to be
     driven to 1 (or X), [toward_zero] when to 0 *)
  toward_one : int array;
  toward_zero : int array;
  (* backtrace visit stamps, one slot per (node, value), and the value
     the found source must take *)
  stamp : int array;
  mutable generation : int;
  mutable found : Logic.t;
  (* implication event queue: one bucket per level *)
  bucket : int array array;
  bucket_len : int array;
  queued : bool array;
}

let logic_code = function Logic.Zero -> 0 | Logic.One -> 1 | Logic.X -> 2

(* Section 4's directive: to set a line to 1 prefer small (most
   negative) leakage observability, to set it to 0 prefer large. *)
let candidate_order c direction ~value =
  match direction with
  | Structural -> fun a b -> compare (Circuit.level c a) (Circuit.level c b)
  | Leakage_directed obs ->
    let key id = Power.Observability.observability_na obs id in
    (match value with
    | Logic.One | Logic.X -> fun a b -> compare (key a) (key b)
    | Logic.Zero -> fun a b -> compare (key b) (key a))

(* Every gate's fanins, each slice stably sorted by [cmp]: visiting a
   slice and skipping the non-X lines meets them in exactly the order
   sorting the X lines alone would give. *)
let sorted_fanins comp cmp =
  let off = Compiled.fanin_off comp in
  let order = Array.copy (Compiled.fanin comp) in
  for id = 0 to Compiled.node_count comp - 1 do
    let lo = off.(id) and hi = off.(id + 1) in
    if hi - lo > 1 then begin
      let slice = Array.sub order lo (hi - lo) in
      Array.stable_sort cmp slice;
      Array.blit slice 0 order lo (hi - lo)
    end
  done;
  order

let create c ~controllable ~direction =
  let comp = Compiled.of_circuit c in
  let n = Compiled.node_count comp in
  let flags = Array.make n false in
  List.iter
    (fun id ->
      if not (Compiled.is_source comp id) then
        invalid_arg "Justify.create: controllable node is not a source";
      flags.(id) <- true)
    controllable;
  let toward_one =
    sorted_fanins comp (candidate_order c direction ~value:Logic.One)
  in
  let toward_zero =
    match direction with
    | Structural -> toward_one
    | Leakage_directed _ ->
      sorted_fanins comp (candidate_order c direction ~value:Logic.Zero)
  in
  let population = Compiled.level_population comp in
  {
    comp;
    controllable = flags;
    inverting =
      Array.init n (fun id -> Gate.inversion (Circuit.node c id).Circuit.kind);
    direction;
    toward_one;
    toward_zero;
    stamp = Array.make (3 * n) 0;
    generation = 0;
    found = Logic.X;
    bucket = Array.map (fun k -> Array.make k 0) population;
    bucket_len = Array.make (Array.length population) 0;
    queued = Array.make n false;
  }

let order_candidates t ~value candidates =
  List.sort
    (candidate_order (Compiled.circuit t.comp) t.direction ~value)
    candidates

(* Queue the non-source fanouts of [id] for re-evaluation. *)
let schedule_fanouts t id =
  let comp = t.comp in
  let fanout = Compiled.fanout comp and off = Compiled.fanout_off comp in
  let levels = Compiled.levels comp in
  for i = off.(id) to off.(id + 1) - 1 do
    let g = fanout.(i) in
    if (not t.queued.(g)) && not (Compiled.is_source comp g) then begin
      t.queued.(g) <- true;
      let l = levels.(g) in
      t.bucket.(l).(t.bucket_len.(l)) <- g;
      t.bucket_len.(l) <- t.bucket_len.(l) + 1
    end
  done

(* Re-evaluate the queued gates level by level; a gate whose value
   changes queues its own fanouts, which sit at strictly higher
   levels. Leaves [work] equal to a full three-valued sweep. *)
let imply t work =
  let comp = t.comp in
  for l = 0 to Array.length t.bucket - 1 do
    let b = t.bucket.(l) in
    let k = ref 0 in
    while !k < t.bucket_len.(l) do
      let g = b.(!k) in
      t.queued.(g) <- false;
      let v = Compiled.eval_logic comp work g in
      if not (Logic.equal v work.(g)) then begin
        work.(g) <- v;
        schedule_fanouts t g
      end;
      incr k
    done;
    t.bucket_len.(l) <- 0
  done

let set_source t work src v =
  if not (Compiled.is_source t.comp src) then
    invalid_arg "Justify.set_source: not a source";
  work.(src) <- v;
  schedule_fanouts t src

(* Backtrace: find a controllable, still-unassigned source that can
   contribute to driving [node] toward [v], descending only through
   X-valued lines; candidate fanins at each gate are tried in the
   direction-given order. Returns the source id, or -1; the value it
   must take is left in [t.found]. *)
let backtrace t work node v =
  let comp = t.comp in
  let off = Compiled.fanin_off comp in
  t.generation <- t.generation + 1;
  let gen = t.generation in
  let rec walk id v =
    let slot = (3 * id) + logic_code v in
    if t.stamp.(slot) = gen then -1
    else begin
      t.stamp.(slot) <- gen;
      if Compiled.is_source comp id then
        if t.controllable.(id) && Logic.equal work.(id) Logic.X then begin
          t.found <- v;
          id
        end
        else -1
      else begin
        let v_inner = if t.inverting.(id) then Logic.lnot v else v in
        let order =
          match v_inner with
          | Logic.Zero -> t.toward_zero
          | Logic.One | Logic.X -> t.toward_one
        in
        first_ok order off.(id) off.(id + 1) v_inner
      end
    end
  and first_ok order i hi v =
    if i >= hi then -1
    else
      let f = order.(i) in
      let hit = if Logic.equal work.(f) Logic.X then walk f v else -1 in
      if hit >= 0 then hit else first_ok order (i + 1) hi v
  in
  walk node v

let justify t ~values node v =
  Telemetry.Counter.inc m_attempts;
  let work = Array.copy values in
  Compiled.eval_logics t.comp work;
  if Logic.equal work.(node) v then Some work
  else if not (Logic.equal work.(node) Logic.X) then None
  else begin
    let stack = ref [] in
    let backtracks = ref 0 in
    let rec unwind () =
      match !stack with
      | [] -> false
      | (src, value, flipped) :: rest ->
        if flipped then begin
          set_source t work src Logic.X;
          stack := rest;
          unwind ()
        end
        else begin
          incr backtracks;
          Telemetry.Counter.inc m_backtracks;
          if !backtracks > backtrack_limit then false
          else begin
            let value' = Logic.lnot value in
            set_source t work src value';
            stack := (src, value', true) :: rest;
            imply t work;
            true
          end
        end
    in
    let rec search () =
      if Logic.equal work.(node) v then Some work
      else if not (Logic.equal work.(node) Logic.X) then
        if unwind () then search () else None
      else
        let src = backtrace t work node v in
        if src < 0 then (if unwind () then search () else None)
        else begin
          let value = t.found in
          set_source t work src value;
          stack := (src, value, false) :: !stack;
          imply t work;
          search ()
        end
    in
    let result = search () in
    (* a failed unwind can leave unassign events queued: settle them so
       the next call starts from an empty queue *)
    imply t work;
    result
  end
