open Netlist

let lanes = Compiled.lanes

let m_batches = Telemetry.Counter.make "atpg.fault_sim.batches"
let m_words = Telemetry.Counter.make "atpg.fault_sim.detection_words"
let m_ffr_traces = Telemetry.Counter.make "atpg.fault_sim.ffr_traces"
let m_stem_events = Telemetry.Counter.make "atpg.fault_sim.stem_events"
let m_early_exits = Telemetry.Counter.make "atpg.fault_sim.early_exits"
let m_dominator_hits = Telemetry.Counter.make "atpg.fault_sim.dominator_hits"
let m_dropped = Telemetry.Counter.make "atpg.fault_sim.dropped_faults"

type machine = {
  comp : Compiled.t;
  good : int array; (* node id -> packed good values *)
  (* stamped per-fault scratch: faulty value of a node is valid only
     when its stamp matches the machine's current stamp *)
  faulty : int array;
  faulty_stamp : int array;
  mutable stamp : int;
  (* critical-path-tracing state, all validated against [batch] (bumped
     by every batch load) so nothing is cleared between batches *)
  mutable batch : int;
  obs_w : int array; (* stem/dominator -> patterns where a flip is observed *)
  obs_stamp : int array;
  sens : int array; (* in-FFR line -> patterns sensitized to the stem *)
  sens_stamp : int array;
  sched : int array; (* per-propagation scheduled marker *)
  buckets : int array array; (* per-level event queues *)
  bucket_len : int array;
  path_buf : int array; (* FFR climb scratch *)
}

let make c =
  let n = Circuit.node_count c in
  let comp = Compiled.of_circuit c in
  {
    comp;
    good = Array.make n 0;
    faulty = Array.make n 0;
    faulty_stamp = Array.make n 0;
    stamp = 0;
    batch = 0;
    obs_w = Array.make n 0;
    obs_stamp = Array.make n 0;
    sens = Array.make n 0;
    sens_stamp = Array.make n 0;
    sched = Array.make n 0;
    buckets = Array.map (fun p -> Array.make p 0) (Compiled.level_population comp);
    bucket_len = Array.make (Compiled.max_level comp + 1) 0;
    path_buf = Array.make n 0;
  }

(* Pack up to [lanes] vectors (positional over sources) into the good
   machine and simulate; returns the valid-pattern mask. *)
let load_good m vectors =
  Telemetry.Counter.inc m_batches;
  m.batch <- m.batch + 1;
  let c = Compiled.circuit m.comp in
  let srcs = Circuit.sources c in
  let count = List.length vectors in
  assert (count > 0 && count <= lanes);
  let good = m.good in
  Array.iter (fun id -> good.(id) <- 0) srcs;
  (* one pass over the vectors: vector [vi] sets lane [vi] *)
  List.iteri
    (fun vi vec ->
      let bit = 1 lsl vi in
      for pos = 0 to Array.length srcs - 1 do
        if vec.(pos) then begin
          let id = srcs.(pos) in
          good.(id) <- good.(id) lor bit
        end
      done)
    vectors;
  Compiled.eval_lanes m.comp good;
  if count = lanes then -1 else (1 lsl count) - 1

(* Faulty-machine value of a fanin: the per-fault scratch when the
   node was evaluated under the current stamp, the good machine
   otherwise. *)
let[@inline] sel m stamp f =
  if m.faulty_stamp.(f) = stamp then m.faulty.(f) else m.good.(f)

let rec fold_and_sel m stamp (fa : int array) i hi ov_pin ov_word acc =
  if i >= hi then acc
  else
    let v = if i = ov_pin then ov_word else sel m stamp fa.(i) in
    fold_and_sel m stamp fa (i + 1) hi ov_pin ov_word (acc land v)

let rec fold_or_sel m stamp (fa : int array) i hi ov_pin ov_word acc =
  if i >= hi then acc
  else
    let v = if i = ov_pin then ov_word else sel m stamp fa.(i) in
    fold_or_sel m stamp fa (i + 1) hi ov_pin ov_word (acc lor v)

let rec fold_xor_sel m stamp (fa : int array) i hi ov_pin ov_word acc =
  if i >= hi then acc
  else
    let v = if i = ov_pin then ov_word else sel m stamp fa.(i) in
    fold_xor_sel m stamp fa (i + 1) hi ov_pin ov_word (acc lxor v)

(* Bitwise evaluation of one node against the stamped faulty
   scratch, with pin [ov_pin] (absolute index into the CSR fanin
   array, or -1) forced to [ov_word]. Allocation-free: no fanin-value
   array is materialised. *)
let eval_faulty m stamp id ov_pin ov_word =
  let fanin_off = Compiled.fanin_off m.comp in
  let fa = Compiled.fanin m.comp in
  let lo = fanin_off.(id) and hi = fanin_off.(id + 1) in
  let op = (Compiled.opcode m.comp).(id) in
  if op = Compiled.op_and then
    fold_and_sel m stamp fa lo hi ov_pin ov_word (-1)
  else if op = Compiled.op_nand then
    lnot (fold_and_sel m stamp fa lo hi ov_pin ov_word (-1))
  else if op = Compiled.op_or then fold_or_sel m stamp fa lo hi ov_pin ov_word 0
  else if op = Compiled.op_nor then
    lnot (fold_or_sel m stamp fa lo hi ov_pin ov_word 0)
  else if op = Compiled.op_not then
    lnot (if lo = ov_pin then ov_word else sel m stamp fa.(lo))
  else if op = Compiled.op_buf || op = Compiled.op_output then
    if lo = ov_pin then ov_word else sel m stamp fa.(lo)
  else if op = Compiled.op_xor then
    fold_xor_sel m stamp fa lo hi ov_pin ov_word 0
  else if op = Compiled.op_xnor then
    lnot (fold_xor_sel m stamp fa lo hi ov_pin ov_word 0)
  else invalid_arg "Fault_simulation: source eval"

(* Evaluate gate [g] with the single node [nnode] flipped against the
   good machine: a fresh stamp means [sel] reads good values for every
   other fanin, so no scratch needs clearing. *)
let[@inline] eval_flip m g nnode =
  m.stamp <- m.stamp + 1;
  m.faulty.(nnode) <- lnot m.good.(nnode);
  m.faulty_stamp.(nnode) <- m.stamp;
  eval_faulty m m.stamp g (-1) 0

(* Patterns on which a value flip at [site] reaches the stem of its
   fanout-free region. Inside an FFR every node has exactly one path
   to the stem, so lane-wise single-path sensitization composes
   exactly: sens(site) = sens(fanout) AND (flipping [site] flips the
   fanout's output). One climb memoizes the whole chain for the rest
   of the batch, which is what makes critical path tracing cheaper
   than cone resimulation — faults on the same FFR chain share it. *)
let sensitivity m site =
  let ffr_stem = Compiled.ffr_stem m.comp in
  let stem = ffr_stem.(site) in
  if site = stem then -1
  else if m.sens_stamp.(site) = m.batch then m.sens.(site)
  else begin
    Telemetry.Counter.inc m_ffr_traces;
    let fanout_off = Compiled.fanout_off m.comp in
    let fanout = Compiled.fanout m.comp in
    let buf = m.path_buf in
    let len = ref 0 in
    let cur = ref site in
    while !cur <> stem && m.sens_stamp.(!cur) <> m.batch do
      buf.(!len) <- !cur;
      incr len;
      cur := fanout.(fanout_off.(!cur))
    done;
    let acc = ref (if !cur = stem then -1 else m.sens.(!cur)) in
    for i = !len - 1 downto 0 do
      let nd = buf.(i) in
      let g = fanout.(fanout_off.(nd)) in
      let local = eval_flip m g nd lxor m.good.(g) in
      acc := !acc land local;
      m.sens.(nd) <- !acc;
      m.sens_stamp.(nd) <- m.batch
    done;
    m.sens.(site)
  end

exception Resolved

(* Patterns on which a value flip at [start] (a stem or dominator) is
   observed: event-driven forward propagation of the [lanes]-pattern
   difference word through level-ordered buckets. Early exits: when
   every pending difference word has gone to zero, and when the event
   frontier collapses to a single node — necessarily a propagation
   dominator of [start] — whose own observability word finishes the
   job (recursively; per-batch memoized, so deep dominator chains are
   resolved once and shared by every stem behind them). Events on
   nodes that cannot reach an observable are never scheduled, which
   both prunes work and keeps the frontier-collapse test sound. *)
let rec obs_of m start =
  if m.obs_stamp.(start) = m.batch then m.obs_w.(start)
  else begin
    let levels = Compiled.levels m.comp in
    let fanout_off = Compiled.fanout_off m.comp in
    let fanout = Compiled.fanout m.comp in
    let opcode = Compiled.opcode m.comp in
    let observable = Compiled.observable m.comp in
    let reaches = Compiled.reaches_observable m.comp in
    let max_level = Compiled.max_level m.comp in
    m.stamp <- m.stamp + 1;
    let stamp = m.stamp in
    for l = 0 to max_level do
      m.bucket_len.(l) <- 0
    done;
    m.faulty.(start) <- lnot m.good.(start);
    m.faulty_stamp.(start) <- stamp;
    let det = ref (if observable.(start) then -1 else 0) in
    let pending = ref 0 in
    let schedule id =
      if m.sched.(id) <> stamp then begin
        m.sched.(id) <- stamp;
        let l = levels.(id) in
        m.buckets.(l).(m.bucket_len.(l)) <- id;
        m.bucket_len.(l) <- m.bucket_len.(l) + 1;
        incr pending
      end
    in
    for i = fanout_off.(start) to fanout_off.(start + 1) - 1 do
      let succ = fanout.(i) in
      if opcode.(succ) <> Compiled.op_dff && reaches.(succ) then schedule succ
    done;
    (try
       for l = levels.(start) + 1 to max_level do
         let bucket = m.buckets.(l) in
         for k = 0 to m.bucket_len.(l) - 1 do
           let id = bucket.(k) in
           decr pending;
           Telemetry.Counter.inc m_stem_events;
           let w = eval_faulty m stamp id (-1) 0 in
           m.faulty.(id) <- w;
           m.faulty_stamp.(id) <- stamp;
           let d = w lxor m.good.(id) in
           if d = 0 then begin
             if !pending = 0 then begin
               Telemetry.Counter.inc m_early_exits;
               raise_notrace Resolved
             end
           end
           else begin
             if observable.(id) then det := !det lor d;
             let lo = fanout_off.(id) and hi = fanout_off.(id + 1) in
             let has_succ = ref false in
             for i = lo to hi - 1 do
               let succ = fanout.(i) in
               if opcode.(succ) <> Compiled.op_dff && reaches.(succ) then
                 has_succ := true
             done;
             if !has_succ then
               if !pending = 0 then begin
                 (* the frontier collapsed onto [id]: every live lane's
                    difference is exactly [d], so [id]'s own (memoized)
                    observability finishes the propagation *)
                 if m.obs_stamp.(id) = m.batch then
                   Telemetry.Counter.inc m_dominator_hits;
                 det := !det lor (d land obs_of m id);
                 raise_notrace Resolved
               end
               else
                 for i = lo to hi - 1 do
                   let succ = fanout.(i) in
                   if opcode.(succ) <> Compiled.op_dff && reaches.(succ) then
                     schedule succ
                 done
           end
         done
       done
     with Resolved -> ());
    m.obs_w.(start) <- !det;
    m.obs_stamp.(start) <- m.batch;
    !det
  end

(* Critical-path-tracing detection: activation at the site, times
   sensitization to the FFR stem, times the stem's observability. For
   a pin fault the activation and pin-local sensitization collapse
   into one overridden evaluation of the gate (its output differs from
   good exactly on patterns where the stuck pin both differs from the
   driver and flips the gate). Bit [v] of the result is set iff valid
   pattern [v] of [mask] detects the fault. *)
let fault_detection_word m mask (f : Fault.t) =
  Telemetry.Counter.inc m_words;
  let ffr_stem = Compiled.ffr_stem m.comp in
  let reaches = Compiled.reaches_observable m.comp in
  let stuck_word = if f.Fault.stuck then -1 else 0 in
  let det =
    match f.Fault.site with
    | Fault.Output_line id ->
      if not reaches.(id) then 0
      else
        let act = m.good.(id) lxor stuck_word in
        if act = 0 then 0
        else
          let s = act land sensitivity m id in
          if s = 0 then 0 else s land obs_of m ffr_stem.(id)
    | Fault.Input_pin (gid, pin) ->
      if not reaches.(gid) then 0
      else begin
        let fanin_off = Compiled.fanin_off m.comp in
        m.stamp <- m.stamp + 1;
        let w = eval_faulty m m.stamp gid (fanin_off.(gid) + pin) stuck_word in
        let d = w lxor m.good.(gid) in
        if d = 0 then 0
        else
          let s = d land sensitivity m gid in
          if s = 0 then 0 else s land obs_of m ffr_stem.(gid)
      end
  in
  det land mask

let rec batches = function
  | [] -> []
  | vectors ->
    let rec take k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | v :: rest -> take (k - 1) (v :: acc) rest
    in
    let batch, rest = take lanes [] vectors in
    batch :: batches rest

(* Callers that already hold a machine pass it through; the circuit
   must be the very value the machine was compiled from (the compiled
   form is a snapshot, so a physically different circuit — even a
   structurally equal one — would silently desynchronise). *)
let resolve_machine ?machine c =
  match machine with
  | None -> make c
  | Some m ->
    if Compiled.circuit m.comp != c then
      invalid_arg "Fault_simulation: machine compiled from a different circuit";
    m

let h_pattern = Telemetry.Histogram.make "atpg.fault_sim.pattern_s"

(* Indices of the faults not yet detected: the batch-scoped
   dropped-fault set shrinks this batch over batch. *)
let live_indices det_flags =
  let l = ref [] in
  for i = Array.length det_flags - 1 downto 0 do
    if not det_flags.(i) then l := i :: !l
  done;
  Array.of_list !l

let split ?machine c ~faults ~vectors =
  if vectors = [] then ([], faults)
  else begin
    let m = resolve_machine ?machine c in
    let fault_all = Array.of_list faults in
    let nf_all = Array.length fault_all in
    let det_flags = Array.make nf_all false in
    List.iter
      (fun batch ->
        let live = live_indices det_flags in
        Telemetry.Counter.add m_dropped (nf_all - Array.length live);
        if Array.length live > 0 then begin
          let t0 = if Telemetry.enabled () then Telemetry.now () else 0.0 in
          let mask = load_good m batch in
          Array.iter
            (fun i ->
              if fault_detection_word m mask fault_all.(i) <> 0 then
                det_flags.(i) <- true)
            live;
          (* a batch is up to [lanes] patterns simulated in one pass;
             report the amortised per-pattern cost, which is the unit
             the paper's tables are normalised to *)
          if Telemetry.enabled () then
            Telemetry.Histogram.observe h_pattern
              ((Telemetry.now () -. t0)
              /. float_of_int (max 1 (List.length batch)))
        end)
      (batches vectors);
    let det = ref [] and undet = ref [] in
    for i = nf_all - 1 downto 0 do
      if det_flags.(i) then det := fault_all.(i) :: !det
      else undet := fault_all.(i) :: !undet
    done;
    (!det, !undet)
  end

let coverage ?machine c ~faults ~vectors =
  match faults with
  | [] -> 1.0
  | _ ->
    let detected, _ = split ?machine c ~faults ~vectors in
    float_of_int (List.length detected) /. float_of_int (List.length faults)

let effective_subset ?machine c ~faults ~vectors =
  (* Reverse-order static compaction. The serial walk (simulate one
     vector, drop detected faults, repeat) is quadratic; instead the
     batches are walked from last to first with [lanes]-way pattern
     parallelism and the greedy selection runs on bitmaps: keep a
     vector iff it detects a fault no later-kept vector detects.
     Walking batches in reverse lets covered faults drop out of every
     earlier batch's simulation (the keep decision only ever consults
     still-uncovered faults, so the result is identical to the full
     fault x vector matrix). *)
  let vec_arr = Array.of_list vectors in
  let n_vec = Array.length vec_arr in
  if n_vec = 0 then []
  else begin
    let m = resolve_machine ?machine c in
    let fault_all = Array.of_list faults in
    let nf_all = Array.length fault_all in
    let covered = Array.make nf_all false in
    let n_batches = (n_vec + lanes - 1) / lanes in
    let keep = ref [] in
    for b = n_batches - 1 downto 0 do
      let lo = b * lanes in
      let cnt = min lanes (n_vec - lo) in
      let live = live_indices covered in
      Telemetry.Counter.add m_dropped (nf_all - Array.length live);
      if Array.length live > 0 then begin
        let mask = load_good m (Array.to_list (Array.sub vec_arr lo cnt)) in
        let det_w =
          Array.map (fun i -> fault_detection_word m mask fault_all.(i)) live
        in
        for v = cnt - 1 downto 0 do
          let test = 1 lsl v in
          let newly = ref false in
          Array.iteri
            (fun k i ->
              if (not covered.(i)) && det_w.(k) land test <> 0 then begin
                covered.(i) <- true;
                newly := true
              end)
            live;
          if !newly then keep := vec_arr.(lo + v) :: !keep
        done
      end
    done;
    !keep
  end
