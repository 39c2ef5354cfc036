open Netlist

let m_sessions = Telemetry.Counter.make "scan.sim.sessions"
let m_cycles = Telemetry.Counter.make "scan.sim.cycles"
let m_toggles = Telemetry.Counter.make "scan.sim.toggles"

type policy = {
  pi_during_shift : bool array option;
  forced_pseudo : (int * bool) list;
  hold_previous_capture : bool;
}

let traditional =
  { pi_during_shift = None; forced_pseudo = []; hold_previous_capture = false }

let enhanced_scan =
  { pi_during_shift = None; forced_pseudo = []; hold_previous_capture = true }

type engine = Scalar | Packed

type result = {
  cycles : int;
  shift_cycles : int;
  toggles : int array;
  total_toggles : int;
  per_cycle_toggles : int array;
  dynamic : Power.Switching.report;
  avg_static_uw : float;
  peak_static_uw : float;
  avg_capture_static_uw : float;
}

(* Split a source vector into its PI part and its chain-position-indexed
   state part. *)
let split_vector c chain vec =
  let n_pi = Array.length (Circuit.inputs c) in
  let n_ff = Array.length (Circuit.dffs c) in
  if Array.length vec <> n_pi + n_ff then
    invalid_arg "Scan_sim: vector length mismatch";
  let pi = Array.sub vec 0 n_pi in
  let dffs = Circuit.dffs c in
  (* vec's state part is in Circuit.dffs order; re-index by chain position *)
  let by_pos = Array.make n_ff false in
  Array.iteri
    (fun i id -> by_pos.(Scan_chain.position_of chain id) <- vec.(n_pi + i))
    dffs;
  (pi, by_pos)

type session = {
  circuit : Circuit.t;
  chain : Scan_chain.t;
  policy : policy;
  sim : Sim.Event_sim.t;
  forced : (int, bool) Hashtbl.t;
  mutable chain_state : bool array; (* by chain position *)
  mutable static_sum_shift : float;
  mutable static_sum_capture : float;
  mutable static_peak : float;
  mutable n_shift : int;
  mutable n_capture : int;
  (* incremental leakage bookkeeping: per-gate current leakage and the
     running total, updated only for gates whose fanins toggled *)
  gate_leak_na : float array;
  mutable total_leak_na : float;
  touched_stamp : int array;
  mutable stamp : int;
  mutable toggles_at_last_cycle : int;
  mutable cycle_toggles_rev : int list;
}

(* Recompute every gate's leakage from the simulator's values. *)
let rebuild_leakage s =
  let values = Sim.Event_sim.values s.sim in
  s.total_leak_na <- 0.0;
  Array.iter
    (fun nd ->
      if Gate.is_logic nd.Circuit.kind then begin
        let l = Power.Leakage.gate_leakage_na s.circuit values nd.Circuit.id in
        s.gate_leak_na.(nd.Circuit.id) <- l;
        s.total_leak_na <- s.total_leak_na +. l
      end)
    (Circuit.nodes s.circuit)

(* Refresh only the gates reading a node that toggled this cycle. *)
let refresh_leakage s =
  let values = Sim.Event_sim.values s.sim in
  s.stamp <- s.stamp + 1;
  let stamp = s.stamp in
  Sim.Event_sim.iter_last_changes s.sim (fun id ->
      Array.iter
        (fun succ ->
          if s.touched_stamp.(succ) <> stamp then begin
            s.touched_stamp.(succ) <- stamp;
            let nd = Circuit.node s.circuit succ in
            if Gate.is_logic nd.Circuit.kind then begin
              let l = Power.Leakage.gate_leakage_na s.circuit values succ in
              s.total_leak_na <-
                s.total_leak_na -. s.gate_leak_na.(succ) +. l;
              s.gate_leak_na.(succ) <- l
            end
          end)
        (Circuit.node s.circuit id).Circuit.fanouts)

let leakage_now s = s.total_leak_na *. Techlib.Leakage_table.vdd /. 1000.0

let after_cycle s ~capture =
  let total = Sim.Event_sim.total_toggles s.sim in
  s.cycle_toggles_rev <- (total - s.toggles_at_last_cycle) :: s.cycle_toggles_rev;
  s.toggles_at_last_cycle <- total;
  let leak = leakage_now s in
  if capture then begin
    s.static_sum_capture <- s.static_sum_capture +. leak;
    s.n_capture <- s.n_capture + 1
  end
  else begin
    s.static_sum_shift <- s.static_sum_shift +. leak;
    s.n_shift <- s.n_shift + 1
  end;
  if leak > s.static_peak then s.static_peak <- leak

(* Pseudo-input value presented to the logic for the flip-flop at chain
   position [pos] while Shift Enable is high. *)
let shift_value s pos =
  let id = Scan_chain.cell_at s.chain pos in
  match Hashtbl.find_opt s.forced id with
  | Some v -> v
  | None -> s.chain_state.(pos)

(* every source application immediately folds its toggles into the
   leakage bookkeeping, so consecutive change sets are never lost *)
let apply_sources s changes =
  ignore (Sim.Event_sim.set_sources s.sim changes);
  refresh_leakage s

let pi_changes c pi_values =
  Array.to_list
    (Array.mapi (fun i id -> (id, pi_values.(i))) (Circuit.inputs c))

(* One shift cycle: the chain moves by one, scan-in receives [bit].
   With [hold_previous_capture] (enhanced scan: hold latches at every
   scan-cell output) the pseudo-inputs keep their captured values while
   the chain ripples internally, so the logic sees no shift activity at
   all. *)
let shift_cycle s bit =
  let n = Array.length s.chain_state in
  let next = Array.make n false in
  next.(0) <- bit;
  for j = 1 to n - 1 do
    next.(j) <- s.chain_state.(j - 1)
  done;
  s.chain_state <- next;
  if not s.policy.hold_previous_capture then begin
    let changes = ref [] in
    for pos = 0 to n - 1 do
      let id = Scan_chain.cell_at s.chain pos in
      changes := (id, shift_value s pos) :: !changes
    done;
    apply_sources s !changes
  end;
  after_cycle s ~capture:false

(* Capture cycle: multiplexers select the scan cells again, the test's
   PI part is applied, the logic settles and the response is captured
   back into the chain. *)
let capture_cycle s pi_values =
  let c = s.circuit in
  let n = Array.length s.chain_state in
  let changes = ref (pi_changes c pi_values) in
  for pos = 0 to n - 1 do
    let id = Scan_chain.cell_at s.chain pos in
    changes := (id, s.chain_state.(pos)) :: !changes
  done;
  apply_sources s !changes;
  after_cycle s ~capture:true;
  (* capture: chain now holds the combinational response *)
  let values = Sim.Event_sim.values s.sim in
  let response = Array.make n false in
  Array.iter
    (fun id ->
      let d = (Circuit.node c id).Circuit.fanins.(0) in
      response.(Scan_chain.position_of s.chain id) <- values.(d))
    (Circuit.dffs c);
  s.chain_state <- response;
  response

let make_session ?init_state c chain policy =
  let n_ff = Scan_chain.length chain in
  let forced = Hashtbl.create 8 in
  List.iter
    (fun (id, v) ->
      if not (Gate.equal_kind (Circuit.node c id).Circuit.kind Gate.Dff) then
        invalid_arg "Scan_sim: forced node is not a flip-flop";
      Hashtbl.replace forced id v)
    policy.forced_pseudo;
  (match policy.pi_during_shift with
  | Some p when Array.length p <> Array.length (Circuit.inputs c) ->
    invalid_arg "Scan_sim: shift PI pattern length mismatch"
  | Some _ | None -> ());
  let chain_state =
    match init_state with
    | None -> Array.make n_ff false
    | Some st ->
      if Array.length st <> n_ff then
        invalid_arg "Scan_sim: init state length mismatch";
      Array.copy st
  in
  let sim = Sim.Event_sim.create c in
  {
    circuit = c;
    chain;
    policy;
    sim;
    forced;
    chain_state;
    static_sum_shift = 0.0;
    static_sum_capture = 0.0;
    static_peak = 0.0;
    n_shift = 0;
    n_capture = 0;
    gate_leak_na = Array.make (Circuit.node_count c) 0.0;
    total_leak_na = 0.0;
    touched_stamp = Array.make (Circuit.node_count c) 0;
    stamp = 0;
    toggles_at_last_cycle = 0;
    cycle_toggles_rev = [];
  }

let run ?init_state c chain policy ~vectors ~on_response =
  let s = make_session ?init_state c chain policy in
  let shift_pi current_test_pi =
    match s.policy.pi_during_shift with
    | Some p -> p
    | None -> current_test_pi
  in
  let first_pi =
    match vectors with
    | [] -> Array.make (Array.length (Circuit.inputs c)) false
    | v :: _ -> fst (split_vector c chain v)
  in
  (* initial settle (not counted): shift mode, chain at init state *)
  let init_pi = shift_pi first_pi in
  let pi_ids = Circuit.inputs c in
  let pi_pos = Hashtbl.create 16 in
  Array.iteri (fun i id -> Hashtbl.replace pi_pos id i) pi_ids;
  Sim.Event_sim.init s.sim (fun id ->
      match Hashtbl.find_opt pi_pos id with
      | Some i -> init_pi.(i)
      | None ->
        (* a flip-flop *)
        shift_value s (Scan_chain.position_of chain id));
  rebuild_leakage s;
  List.iter
    (fun vec ->
      let pi, target_state = split_vector c chain vec in
      (* drive the shift-mode PI pattern (counted: it is a real change
         after the previous capture) *)
      apply_sources s (pi_changes c (shift_pi pi));
      List.iter (shift_cycle s) (Scan_chain.shift_in_sequence chain target_state);
      let response = capture_cycle s pi in
      on_response response)
    vectors;
  (* final shift-out of the last response (scan-in pumped with zeros) *)
  if vectors <> [] then begin
    apply_sources s (pi_changes c (shift_pi first_pi));
    for _ = 1 to Scan_chain.length chain do
      shift_cycle s false
    done
  end;
  (* invariant: the incremental leakage total equals a full recompute *)
  let accumulated = s.total_leak_na in
  rebuild_leakage s;
  assert (
    Float.abs (accumulated -. s.total_leak_na)
    < 1e-6 *. Float.max 1.0 s.total_leak_na);
  Telemetry.Counter.inc m_sessions;
  Telemetry.Counter.add m_cycles (s.n_shift + s.n_capture);
  Telemetry.Counter.add m_toggles (Sim.Event_sim.total_toggles s.sim);
  s

(* ------------------------------------------------------------------ *)
(* Packed engine: 64 cycles per 64-bit word.                           *)
(*                                                                     *)
(* The scalar protocol is a sequence of settled states: an uncounted   *)
(* initial settle, then per vector a silent source pre-application     *)
(* (the shift-mode PI pattern), [n_ff] shift cycles and one capture,   *)
(* and a final shift-out segment.  Because the event simulator          *)
(* evaluates every node at most once per change set, the toggles of a  *)
(* cycle equal the Hamming distance between consecutive settled        *)
(* states — so packing 64 consecutive settled states per word and      *)
(* popcounting lane-to-lane XORs reproduces the scalar counts bit for  *)
(* bit.                                                                *)
(*                                                                     *)
(* The one wrinkle is the silent pre-application: the scalar run       *)
(* settles it as its own state (a node may toggle there and toggle     *)
(* back in shift cycle 1, counting twice) but snapshots no leakage and *)
(* appends no per-cycle entry for it.  It is therefore modelled as a   *)
(* distinct lane whose toggles merge into the next counted cycle.      *)
(*                                                                     *)
(* During shift, the flip-flop pseudo-input at chain position [j]      *)
(* after [k] shifts is a pure function of the pre-shift chain contents *)
(* S0 and the scan-in bits b: it equals A.(n-1-j+k) of the stream      *)
(* A = [S0.(n-1); ...; S0.(0); b1; ...; bn].  Each flip-flop's shift   *)
(* lanes are thus a 64-bit window into the packed stream — no          *)
(* per-cycle chain array is materialised.                              *)
(* ------------------------------------------------------------------ *)

type packed_stats = {
  p_toggles : int array;
  p_total : int;
  p_per_cycle : int array;
  p_n_shift : int;
  p_n_capture : int;
  p_sum_shift : float;
  p_sum_capture : float;
  p_peak : float;
}

(* Lanes [lo..hi] inclusive (within 0..63); 0L when empty. *)
let mask_bits lo hi =
  if lo > hi then 0L
  else begin
    let width = hi - lo + 1 in
    let m =
      if width = 64 then Int64.minus_one
      else Int64.sub (Int64.shift_left 1L width) 1L
    in
    Int64.shift_left m lo
  end

(* 64-bit window of a packed bit stream starting at bit [off]. *)
let window (a : int64 array) off =
  let w = off lsr 6 and b = off land 63 in
  if b = 0 then a.(w)
  else
    Int64.logor
      (Int64.shift_right_logical a.(w) b)
      (Int64.shift_left a.(w + 1) (64 - b))

(* Native-int 32-lane halves of a word, for hot scan loops where boxed
   int64 refs would allocate on every assignment. *)
let lo32 (w : int64) = Int64.to_int (Int64.logand w 0xFFFFFFFFL)
let hi32 (w : int64) = Int64.to_int (Int64.shift_right_logical w 32)

let run_packed ?init_state c chain policy ~vectors ~on_response =
  let n_ff = Scan_chain.length chain in
  let n_nodes = Circuit.node_count c in
  (* same validations (and failure messages) as the scalar session *)
  let forced_by_pos = Array.make (max n_ff 1) None in
  List.iter
    (fun (id, v) ->
      if not (Gate.equal_kind (Circuit.node c id).Circuit.kind Gate.Dff) then
        invalid_arg "Scan_sim: forced node is not a flip-flop";
      forced_by_pos.(Scan_chain.position_of chain id) <- Some v)
    policy.forced_pseudo;
  (match policy.pi_during_shift with
  | Some p when Array.length p <> Array.length (Circuit.inputs c) ->
    invalid_arg "Scan_sim: shift PI pattern length mismatch"
  | Some _ | None -> ());
  let chain_state =
    match init_state with
    | None -> Array.make n_ff false
    | Some st ->
      if Array.length st <> n_ff then
        invalid_arg "Scan_sim: init state length mismatch";
      Array.copy st
  in
  let comp = Compiled.of_circuit c in
  let ps = Sim.Packed_sim.create comp in
  let frame_lanes = Sim.Packed_sim.lanes in
  let words = Sim.Packed_sim.words ps in
  let lane_toggles = Sim.Packed_sim.lane_toggles ps in
  let fanin_off = Compiled.fanin_off comp in
  let fanin = Compiled.fanin comp in
  let pi_ids = Circuit.inputs c in
  let ff_by_pos = Array.init n_ff (Scan_chain.cell_at chain) in
  (* per-gate leakage tables (input state -> nA); building them performs
     the same mapped-circuit check as the scalar path *)
  let leak_tbl = Array.make n_nodes [||] in
  let n_leak = ref 0 in
  Array.iter
    (fun nd ->
      if Gate.is_logic nd.Circuit.kind then
        match Techmap.Mapper.cell_of_node c nd.Circuit.id with
        | None -> ()
        | Some cell ->
          leak_tbl.(nd.Circuit.id) <-
            Array.init (Techlib.Leakage_table.n_states cell) (fun state ->
                Techlib.Leakage_table.leakage_na cell ~state);
          incr n_leak)
    (Circuit.nodes c);
  let leak_gates = Array.make !n_leak 0 in
  let k = ref 0 in
  Array.iter
    (fun nd ->
      if Array.length leak_tbl.(nd.Circuit.id) > 0 then begin
        leak_gates.(!k) <- nd.Circuit.id;
        incr k
      end)
    (Circuit.nodes c);
  let total_na = ref 0.0 in
  let per_cycle_rev = ref [] in
  let silent_acc = ref 0 in
  let n_shift = ref 0 and n_capture = ref 0 in
  let sum_shift = ref 0.0 and sum_capture = ref 0.0 and peak = ref 0.0 in
  let state_at id l =
    let lo = fanin_off.(id) and hi = fanin_off.(id + 1) in
    let s = ref 0 in
    for i = lo to hi - 1 do
      if
        Int64.logand
          (Int64.shift_right_logical words.(fanin.(i)) l)
          1L
        <> 0L
      then s := !s lor (1 lsl (i - lo))
    done;
    !s
  in
  (* Bit-sliced leakage counting: gates sharing a leakage table and
     arity form a group; per frame, for every input state, carry-save
     counters over the lane words count how many of the group's gates
     sit in that state at each lane.  Static accounting is then
     O(gates * states) per frame instead of O(gates * lanes), and each
     lane's total is recomputed from scratch (the scalar path
     integrates the same quantity incrementally; they agree to float
     tolerance). *)
  let groups =
    let raw = ref [] in
    Array.iter
      (fun id ->
        let arity = fanin_off.(id + 1) - fanin_off.(id) in
        let tbl = leak_tbl.(id) in
        match List.find_opt (fun (a, t, _) -> a = arity && t = tbl) !raw with
        | Some (_, _, gids) -> gids := id :: !gids
        | None -> raw := (arity, tbl, ref [ id ]) :: !raw)
      leak_gates;
    List.rev_map
      (fun (arity, tbl, gids) ->
        let gs = Array.of_list (List.rev !gids) in
        let n_g = Array.length gs in
        let nbits =
          let b = ref 1 in
          while 1 lsl !b <= n_g do
            incr b
          done;
          !b
        in
        let pins = Array.make (n_g * arity) 0 in
        Array.iteri
          (fun g id ->
            let lo = fanin_off.(id) in
            for p = 0 to arity - 1 do
              pins.((g * arity) + p) <- fanin.(lo + p)
            done)
          gs;
        (arity, tbl, n_g, nbits, pins))
      !raw
    |> Array.of_list
  in
  let max_states =
    Array.fold_left (fun m (_, t, _, _, _) -> max m (Array.length t)) 1 groups
  in
  let max_bits =
    Array.fold_left (fun m (_, _, _, b, _) -> max m b) 1 groups
  in
  let max_arity =
    Array.fold_left (fun m (a, _, _, _, _) -> max m a) 1 groups
  in
  let planes_lo = Array.init max_states (fun _ -> Array.make max_bits 0) in
  let planes_hi = Array.init max_states (fun _ -> Array.make max_bits 0) in
  let pv_lo = Array.make max_arity 0 and pv_hi = Array.make max_arity 0 in
  let na_lane = Array.make frame_lanes 0.0 in
  (* add a 32-lane presence mask into a carry-save counter; everything
     is a native int, so nothing boxes *)
  let cs_add (planes : int array) m =
    let c = ref m and b = ref 0 in
    while !c <> 0 do
      let t = planes.(!b) in
      planes.(!b) <- t lxor !c;
      c := t land !c;
      incr b
    done
  in
  (* Account one stepped frame: merge per-lane toggle counts into the
     per-cycle series and rebuild the per-lane leakage totals.  [base]
     is the segment lane of frame lane 0 (segment lane 0 = the silent
     pre-application), [cap_s] the capture lane (-1 when the segment
     has none). *)
  let account ~base ~count ~cap_s =
    Array.fill na_lane 0 count 0.0;
    let lim_lo = if count < 32 then count else 32 in
    let lim_hi = count - 32 in
    Array.iter
      (fun (arity, tbl, n_g, nbits, pins) ->
        let n_states = Array.length tbl in
        for s = 0 to n_states - 1 do
          Array.fill planes_lo.(s) 0 nbits 0;
          Array.fill planes_hi.(s) 0 nbits 0
        done;
        if arity = 2 then
          for g = 0 to n_g - 1 do
            let w0 = words.(pins.(2 * g))
            and w1 = words.(pins.((2 * g) + 1)) in
            let v0 = lo32 w0 and v1 = lo32 w1 in
            let n0 = v0 lxor 0xFFFFFFFF and n1 = v1 lxor 0xFFFFFFFF in
            cs_add planes_lo.(0) (n0 land n1);
            cs_add planes_lo.(1) (v0 land n1);
            cs_add planes_lo.(2) (n0 land v1);
            cs_add planes_lo.(3) (v0 land v1);
            let v0 = hi32 w0 and v1 = hi32 w1 in
            let n0 = v0 lxor 0xFFFFFFFF and n1 = v1 lxor 0xFFFFFFFF in
            cs_add planes_hi.(0) (n0 land n1);
            cs_add planes_hi.(1) (v0 land n1);
            cs_add planes_hi.(2) (n0 land v1);
            cs_add planes_hi.(3) (v0 land v1)
          done
        else if arity = 1 then
          for g = 0 to n_g - 1 do
            let w0 = words.(pins.(g)) in
            let v0 = lo32 w0 in
            cs_add planes_lo.(0) (v0 lxor 0xFFFFFFFF);
            cs_add planes_lo.(1) v0;
            let v0 = hi32 w0 in
            cs_add planes_hi.(0) (v0 lxor 0xFFFFFFFF);
            cs_add planes_hi.(1) v0
          done
        else
          for g = 0 to n_g - 1 do
            for p = 0 to arity - 1 do
              let w = words.(pins.((g * arity) + p)) in
              pv_lo.(p) <- lo32 w;
              pv_hi.(p) <- hi32 w
            done;
            for s = 0 to n_states - 1 do
              let m_lo = ref 0xFFFFFFFF and m_hi = ref 0xFFFFFFFF in
              for p = 0 to arity - 1 do
                if (s lsr p) land 1 = 1 then begin
                  m_lo := !m_lo land pv_lo.(p);
                  m_hi := !m_hi land pv_hi.(p)
                end
                else begin
                  m_lo := !m_lo land (pv_lo.(p) lxor 0xFFFFFFFF);
                  m_hi := !m_hi land (pv_hi.(p) lxor 0xFFFFFFFF)
                end
              done;
              cs_add planes_lo.(s) !m_lo;
              cs_add planes_hi.(s) !m_hi
            done
          done;
        for s = 0 to n_states - 1 do
          let coef = tbl.(s) in
          let pl = planes_lo.(s) in
          for l = 0 to lim_lo - 1 do
            let cnt = ref 0 in
            for b = 0 to nbits - 1 do
              cnt := !cnt lor (((pl.(b) lsr l) land 1) lsl b)
            done;
            if !cnt > 0 then
              na_lane.(l) <- na_lane.(l) +. (float_of_int !cnt *. coef)
          done;
          let ph = planes_hi.(s) in
          for l = 0 to lim_hi - 1 do
            let cnt = ref 0 in
            for b = 0 to nbits - 1 do
              cnt := !cnt lor (((ph.(b) lsr l) land 1) lsl b)
            done;
            if !cnt > 0 then
              na_lane.(32 + l) <- na_lane.(32 + l) +. (float_of_int !cnt *. coef)
          done
        done)
      groups;
    total_na := na_lane.(count - 1);
    for l = 0 to count - 1 do
      let s = base + l in
      if s = 0 then silent_acc := !silent_acc + lane_toggles.(l)
      else begin
        per_cycle_rev := (lane_toggles.(l) + !silent_acc) :: !per_cycle_rev;
        silent_acc := 0;
        let uw = na_lane.(l) *. Techlib.Leakage_table.vdd /. 1000.0 in
        if s = cap_s then begin
          sum_capture := !sum_capture +. uw;
          incr n_capture
        end
        else begin
          sum_shift := !sum_shift +. uw;
          incr n_shift
        end;
        if uw > !peak then peak := uw
      end
    done
  in
  let shift_pi current =
    match policy.pi_during_shift with Some p -> p | None -> current
  in
  let first_pi =
    match vectors with
    | [] -> Array.make (Array.length pi_ids) false
    | v :: _ -> fst (split_vector c chain v)
  in
  (* currently-applied flip-flop source values, by chain position *)
  let ff_prev =
    Array.init n_ff (fun j ->
        match forced_by_pos.(j) with
        | Some v -> v
        | None -> chain_state.(j))
  in
  (* initial settle (uncounted), in shift mode at the init chain state *)
  let init_pi = shift_pi first_pi in
  Array.iteri
    (fun i id -> words.(id) <- (if init_pi.(i) then 1L else 0L))
    pi_ids;
  Array.iteri
    (fun j id -> words.(id) <- (if ff_prev.(j) then 1L else 0L))
    ff_by_pos;
  Sim.Packed_sim.step ps ~count:1 ~record:false;
  Array.iter
    (fun id -> total_na := !total_na +. leak_tbl.(id).(state_at id 0))
    leak_gates;
  (* reusable packed shift stream A (see the header comment) *)
  let stream = Array.make (((2 * n_ff) + 63) / 64 + 2) 0L in
  let seg_words = Array.length stream in
  let set_stream i v =
    if v then begin
      let w = i lsr 6 and b = i land 63 in
      stream.(w) <- Int64.logor stream.(w) (Int64.shift_left 1L b)
    end
  in
  (* One segment: lane 0 = silent pre-application of [spi], lanes
     1..n_ff the shift cycles, then (for a test segment, [cap = Some
     (capture_pi, target)]) the capture lane.  [s0] is the chain before
     the first shift, [bits] the scan-in sequence. *)
  let run_segment ~spi ~cap ~s0 ~bits =
    Array.fill stream 0 seg_words 0L;
    for i = 0 to n_ff - 1 do
      set_stream i s0.(n_ff - 1 - i)
    done;
    for m = 1 to n_ff do
      set_stream (n_ff - 1 + m) bits.(m - 1)
    done;
    let has_cap = cap <> None in
    let seg_len = 1 + n_ff + if has_cap then 1 else 0 in
    let cap_s = if has_cap then n_ff + 1 else -1 in
    let base = ref 0 in
    while !base < seg_len do
      let b = !base in
      let count = min frame_lanes (seg_len - b) in
      (* the frame carries segment lanes [b ..]; [m_ps] = pre-application
         + shift lanes (segment lane <= n_ff), [m_shift] = real shift
         cycles only (segment lanes 1..n_ff), [m_cap] = the capture lane
         bit *)
      let m_ps = mask_bits 0 (min (count - 1) (n_ff - b)) in
      let m_shift = mask_bits (max 0 (1 - b)) (min (count - 1) (n_ff - b)) in
      let cap_l = cap_s - b in
      let m_cap =
        if has_cap && cap_l >= 0 && cap_l < count then Int64.shift_left 1L cap_l
        else 0L
      in
      (match cap with
      | Some (cap_pi, _) ->
        Array.iteri
          (fun i id ->
            let w = if spi.(i) then m_ps else 0L in
            words.(id) <-
              (if m_cap <> 0L && cap_pi.(i) then Int64.logor w m_cap else w))
          pi_ids
      | None ->
        Array.iteri
          (fun i id -> words.(id) <- (if spi.(i) then m_ps else 0L))
          pi_ids);
      for j = 0 to n_ff - 1 do
        let w =
          if policy.hold_previous_capture then
            if ff_prev.(j) then m_ps else 0L
          else begin
            let shifts =
              match forced_by_pos.(j) with
              | Some v -> if v then m_shift else 0L
              | None ->
                Int64.logand (window stream (n_ff - 1 - j + b)) m_shift
            in
            if b = 0 && ff_prev.(j) then Int64.logor shifts 1L else shifts
          end
        in
        words.(ff_by_pos.(j)) <-
          (match cap with
          | Some (_, target) when m_cap <> 0L && target.(j) ->
            Int64.logor w m_cap
          | _ -> w)
      done;
      Sim.Packed_sim.step ps ~count ~record:true;
      account ~base:b ~count ~cap_s;
      base := b + count
    done
  in
  List.iter
    (fun vec ->
      let pi, target = split_vector c chain vec in
      let bits = Array.of_list (Scan_chain.shift_in_sequence chain target) in
      run_segment ~spi:(shift_pi pi) ~cap:(Some (pi, target)) ~s0:chain_state
        ~bits;
      (* the capture is the final stepped lane: read the response off the
         D pins *)
      let response = Array.make n_ff false in
      Array.iter
        (fun id ->
          let d = fanin.(fanin_off.(id)) in
          response.(Scan_chain.position_of chain id) <-
            Sim.Packed_sim.final_value ps d)
        (Circuit.dffs c);
      Array.blit target 0 ff_prev 0 n_ff;
      Array.blit response 0 chain_state 0 n_ff;
      on_response response)
    vectors;
  (* final shift-out of the last response (scan-in pumped with zeros) *)
  if vectors <> [] then
    run_segment ~spi:(shift_pi first_pi) ~cap:None ~s0:chain_state
      ~bits:(Array.make n_ff false);
  (* invariant: the incremental leakage total equals a full recompute *)
  let full = ref 0.0 in
  Array.iter
    (fun id ->
      let lo = fanin_off.(id) and hi = fanin_off.(id + 1) in
      let s = ref 0 in
      for i = lo to hi - 1 do
        if Sim.Packed_sim.final_value ps fanin.(i) then
          s := !s lor (1 lsl (i - lo))
      done;
      full := !full +. leak_tbl.(id).(!s))
    leak_gates;
  assert (Float.abs (!total_na -. !full) < 1e-6 *. Float.max 1.0 !full);
  Telemetry.Counter.inc m_sessions;
  Telemetry.Counter.add m_cycles (!n_shift + !n_capture);
  Telemetry.Counter.add m_toggles (Sim.Packed_sim.total_toggles ps);
  {
    p_toggles = Array.copy (Sim.Packed_sim.toggles ps);
    p_total = Sim.Packed_sim.total_toggles ps;
    p_per_cycle = Array.of_list (List.rev !per_cycle_rev);
    p_n_shift = !n_shift;
    p_n_capture = !n_capture;
    p_sum_shift = !sum_shift;
    p_sum_capture = !sum_capture;
    p_peak = !peak;
  }

let measure_scalar ?init_state c chain policy ~vectors =
  let s = run ?init_state c chain policy ~vectors ~on_response:(fun _ -> ()) in
  let toggles = Array.copy (Sim.Event_sim.toggle_counts s.sim) in
  let cycles = s.n_shift + s.n_capture in
  let cycles = max cycles 1 in
  let dynamic = Power.Switching.of_toggles c ~toggles ~cycles in
  {
    cycles;
    shift_cycles = s.n_shift;
    toggles;
    total_toggles = Sim.Event_sim.total_toggles s.sim;
    per_cycle_toggles = Array.of_list (List.rev s.cycle_toggles_rev);
    dynamic;
    avg_static_uw =
      (if s.n_shift = 0 then 0.0
       else s.static_sum_shift /. float_of_int s.n_shift);
    peak_static_uw = s.static_peak;
    avg_capture_static_uw =
      (if s.n_capture = 0 then 0.0
       else s.static_sum_capture /. float_of_int s.n_capture);
  }

let measure_packed ?init_state c chain policy ~vectors =
  let st =
    run_packed ?init_state c chain policy ~vectors
      ~on_response:(fun _ -> ())
  in
  let cycles = max (st.p_n_shift + st.p_n_capture) 1 in
  let dynamic = Power.Switching.of_toggles c ~toggles:st.p_toggles ~cycles in
  {
    cycles;
    shift_cycles = st.p_n_shift;
    toggles = st.p_toggles;
    total_toggles = st.p_total;
    per_cycle_toggles = st.p_per_cycle;
    dynamic;
    avg_static_uw =
      (if st.p_n_shift = 0 then 0.0
       else st.p_sum_shift /. float_of_int st.p_n_shift);
    peak_static_uw = st.p_peak;
    avg_capture_static_uw =
      (if st.p_n_capture = 0 then 0.0
       else st.p_sum_capture /. float_of_int st.p_n_capture);
  }

let measure ?(engine = Packed) ?init_state c chain policy ~vectors =
  match engine with
  | Scalar -> measure_scalar ?init_state c chain policy ~vectors
  | Packed -> measure_packed ?init_state c chain policy ~vectors

let responses ?(engine = Packed) ?init_state c chain policy ~vectors =
  let acc = ref [] in
  (match engine with
  | Scalar ->
    let (_ : session) =
      run ?init_state c chain policy ~vectors ~on_response:(fun r ->
          acc := Array.copy r :: !acc)
    in
    ()
  | Packed ->
    let (_ : packed_stats) =
      run_packed ?init_state c chain policy ~vectors
        ~on_response:(fun r -> acc := Array.copy r :: !acc)
    in
    ());
  List.rev !acc
