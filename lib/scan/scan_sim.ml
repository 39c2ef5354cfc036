open Netlist

let m_sessions = Telemetry.Counter.make "scan.sim.sessions"
let m_cycles = Telemetry.Counter.make "scan.sim.cycles"
let m_toggles = Telemetry.Counter.make "scan.sim.toggles"
let m_node_evals = Telemetry.Counter.make "scan.sim.node_evals"
let m_gate_splits = Telemetry.Counter.make "scan.sim.gate_splits"

type policy = {
  pi_during_shift : bool array option;
  forced_pseudo : (int * bool) list;
  hold_previous_capture : bool;
}

let traditional =
  { pi_during_shift = None; forced_pseudo = []; hold_previous_capture = false }

let enhanced_scan =
  { pi_during_shift = None; forced_pseudo = []; hold_previous_capture = true }

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

(* (first chain position, length) of each chain *)
let spans chain =
  List.fold_left
    (fun (start, acc) n -> (start + n, (start, n) :: acc))
    (0, []) (Scan_chain.chain_lengths chain)
  |> snd |> List.rev |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Validation, the per-cycle tallies and the reduction to a [result].  *)
(* ------------------------------------------------------------------ *)

(* Leakage tallies in microwatts. An all-float record stores its fields
   unboxed, so the per-cycle updates never allocate. *)
type leak_sums = {
  mutable sum_shift : float;
  mutable sum_capture : float;
  mutable peak : float;
}

(* The validated inputs of one run and everything it tallies, filled
   cycle by cycle through [note_cycle]. *)
type stats = {
  forced : bool option array;
      (* by chain position: the pseudo-input pinned during shift *)
  chain_state : bool array; (* by chain position; the capture rewrites it *)
  first_pi : bool array; (* PI part of the first vector *)
  per_cycle : int array;
      (* toggles of each counted cycle, in order: one shift per cell of
         the longest chain and one capture per vector, then the final
         shift-out *)
  mutable n_shift : int;
  mutable n_capture : int;
  leak : leak_sums;
  mutable per_node : int array; (* toggle counts, set when the run ends *)
  mutable total : int;
  mutable node_evals : int; (* set when the run ends *)
  mutable gate_splits : int;
}

let start ?init_state c chain policy ~vectors =
  let n_ff = Scan_chain.length chain in
  let forced = Array.make n_ff None in
  List.iter
    (fun (id, v) ->
      if not (Gate.equal_kind (Circuit.node c id).Circuit.kind Gate.Dff) then
        invalid_arg "Scan_sim: forced node is not a flip-flop";
      forced.(Scan_chain.position_of chain id) <- Some v)
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
  let first_pi =
    match vectors with
    | [] -> Array.make (Array.length (Circuit.inputs c)) false
    | v :: _ -> fst (split_vector c chain v)
  in
  {
    forced;
    chain_state;
    first_pi;
    per_cycle =
      (let n_vec = List.length vectors in
       let per_vec = Scan_chain.shift_cycles chain + 1 in
       Array.make ((n_vec * per_vec) + if n_vec > 0 then per_vec - 1 else 0) 0);
    n_shift = 0;
    n_capture = 0;
    leak = { sum_shift = 0.0; sum_capture = 0.0; peak = 0.0 };
    per_node = [||];
    total = 0;
    node_evals = 0;
    gate_splits = 0;
  }

let shift_pi policy current =
  match policy.pi_during_shift with Some p -> p | None -> current

(* One counted cycle: the toggles it caused and the leakage (nA) of the
   state it settled in. Inlined so that [na] is never boxed. *)
let[@inline] note_cycle st ~capture ~toggles ~na =
  st.per_cycle.(st.n_shift + st.n_capture) <- toggles;
  let uw = na *. Techlib.Leakage_table.vdd /. 1000.0 in
  let leak = st.leak in
  if capture then begin
    leak.sum_capture <- leak.sum_capture +. uw;
    st.n_capture <- st.n_capture + 1
  end
  else begin
    leak.sum_shift <- leak.sum_shift +. uw;
    st.n_shift <- st.n_shift + 1
  end;
  if uw > leak.peak then leak.peak <- uw

(* ------------------------------------------------------------------ *)
(* The session, 63 cycles per native-int word.                         *)
(*                                                                     *)
(* The protocol is a sequence of settled states: an uncounted initial  *)
(* settle, then per vector a silent source pre-application (the        *)
(* shift-mode PI pattern), [n] shift cycles (n is the longest chain's  *)
(* length) and one capture, and a final shift-out segment. A cycle's   *)
(* toggles are the Hamming distance between consecutive settled        *)
(* states (every node settles once per cycle, glitches are not         *)
(* modelled), so packing 63 consecutive settled states per word and    *)
(* popcounting lane-to-lane XORs counts them exactly.                  *)
(*                                                                     *)
(* The whole session is one lane stream: the settle lane, each         *)
(* vector's segment (pre-application, n shifts, capture: n + 2 lanes)  *)
(* and the final shift-out (n + 1 lanes), cut into frames of 63 lanes  *)
(* wherever the segments start. Each lane has a role: silent (the      *)
(* settle and every pre-application), shift or capture.  A silent lane *)
(* snapshots no leakage and appends no per-cycle entry: a              *)
(* pre-application settles as its own state (a node may toggle there   *)
(* and toggle back in shift cycle 1, counting twice), so its toggles   *)
(* merge into the next counted cycle; the settle lane is lane 0 of the *)
(* first frame and is stepped uncounted.                               *)
(*                                                                     *)
(* A segment's shift lanes read the chains the previous capture left.  *)
(* A capture response depends only on the vector (PI and target        *)
(* state), so the responses are computed first, 63 vectors per word   *)
(* on scratch words: no segment waits for the frame that holds the     *)
(* previous capture.                                                   *)
(*                                                                     *)
(* During shift, the pseudo-input of the cell at position [p] of a     *)
(* chain of [m] cells after [k] shifts is a pure function of that      *)
(* chain's pre-shift contents S0 and scan-in bits b: it equals         *)
(* A.(m-1-p+k) of the chain's stream                                   *)
(* A = [S0.(m-1); ...; S0.(0); b1; ...; bn], whose first n-m bits b    *)
(* are the leading zeros of a short chain.  The chains' streams are    *)
(* packed one after another, so each flip-flop's shift lanes are a     *)
(* one-word window at its own offset into the packed stream — no       *)
(* per-cycle chain array is materialised.                              *)
(* ------------------------------------------------------------------ *)

(* Lanes [lo..hi] inclusive (within a frame); 0 when empty. *)
let mask_bits lo hi =
  if lo > hi then 0
  else
    let width = hi - lo + 1 in
    (if width = Compiled.lanes then -1 else (1 lsl width) - 1) lsl lo

(* One frame of a bit stream packed [Compiled.lanes] bits per word,
   starting at bit [off]. *)
let window (a : int array) off =
  let w = off / Compiled.lanes and b = off mod Compiled.lanes in
  if b = 0 then a.(w) else (a.(w) lsr b) lor (a.(w + 1) lsl (Compiled.lanes - b))

module Lane_counter = Sim.Packed_sim.Lane_counter

(* Gates sharing one leakage table, which also fixes their arity (the
   table has 2^arity states): their input pins, gate-major, and per
   input state but the last (whose count per lane is whatever the other
   states leave of the group) a buffer of the frame's varying-gate lane
   masks, counted by the group's one lane counter.

   The split is kept across frames: [steady] counts the group's gates
   per input state as of the last frame the group was split in. A
   group none of whose pins was active in a frame (see
   {!Sim.Packed_sim.active}) and none of whose gates varied in the
   frame before has every gate in the state it held then, on every
   lane, so only the other groups are split again. *)
type leak_group = {
  tbl : float array;
  arity : int;
  n_gates : int;
  pins : int array;
  counter : Lane_counter.t;
  masks : int array;
      (* state-major: state [s]'s masks at [s * n_gates ..], at most one
         per gate *)
  fill : int array; (* per state: masks buffered this frame *)
  steady : int array; (* per state: steady gates *)
}

(* Splitting a frame's gates by input state. Input state [s] has bit
   [p] set iff pin [p] reads 1. A gate whose pins are each all-0 or
   all-1 over the frame's lanes [cm] is steady: it adds one to
   [steady.(s)]. A varying gate buffers each non-empty state mask but
   the last state's in that state's slots of the group's [masks]. Each
   split returns its group's number of varying gates.

   The library has four widths (INV and NAND/NOR2-4), so each has its
   own straight-line split with the pin words in locals: without
   flambda a loop over a mask array is neither unrolled nor kept in
   registers, and it cost about twice as much per op. *)

(* 0 iff the lane word [v] (within [cm]) is all-0 or all-1 over [cm] *)
let[@inline] unsteady v cm = v lxor (cm land -(v land 1))

(* one varying gate's lanes in state [s] *)
let[@inline] add_state g s m =
  (* branch-free: an empty mask lands in the slot past the state's
     buffered ones and is not kept. Each gate adds at most one mask per
     state, so while a gate is split at most [n_gates - 1] are kept:
     the slot is inside the state's part of [masks]. *)
  let f = g.fill.(s) in
  g.masks.((s * g.n_gates) + f) <- m;
  g.fill.(s) <- f + Bool.to_int (m <> 0)

let split_1 g words cm steady =
  let pins = g.pins and n_varying = ref 0 in
  for k = 0 to g.n_gates - 1 do
    let a = words.(pins.(k)) land cm in
    if unsteady a cm = 0 then begin
      let s = a land 1 in
      steady.(s) <- steady.(s) + 1
    end
    else begin
      incr n_varying;
      add_state g 0 (cm lxor a)
    end
  done;
  !n_varying

let split_2 g words cm steady =
  let pins = g.pins and n_varying = ref 0 in
  for k = 0 to g.n_gates - 1 do
    let p = 2 * k in
    let a = words.(pins.(p)) land cm and b = words.(pins.(p + 1)) land cm in
    if unsteady a cm lor unsteady b cm = 0 then begin
      let s = (a land 1) lor ((b land 1) lsl 1) in
      steady.(s) <- steady.(s) + 1
    end
    else begin
      incr n_varying;
      let na = cm lxor a and nb = cm lxor b in
      add_state g 0 (na land nb);
      add_state g 1 (a land nb);
      add_state g 2 (na land b)
    end
  done;
  !n_varying

let split_3 g words cm steady =
  let pins = g.pins and n_varying = ref 0 in
  for k = 0 to g.n_gates - 1 do
    let p = 3 * k in
    let a = words.(pins.(p)) land cm
    and b = words.(pins.(p + 1)) land cm
    and c = words.(pins.(p + 2)) land cm in
    if unsteady a cm lor unsteady b cm lor unsteady c cm = 0 then begin
      let s = (a land 1) lor ((b land 1) lsl 1) lor ((c land 1) lsl 2) in
      steady.(s) <- steady.(s) + 1
    end
    else begin
      incr n_varying;
      (* pin-pair masks of pins 0 and 1, by their state *)
      let na = cm lxor a and nb = cm lxor b and nc = cm lxor c in
      let q0 = na land nb and q1 = a land nb and q2 = na land b in
      let q3 = a land b in
      add_state g 0 (q0 land nc);
      add_state g 1 (q1 land nc);
      add_state g 2 (q2 land nc);
      add_state g 3 (q3 land nc);
      add_state g 4 (q0 land c);
      add_state g 5 (q1 land c);
      add_state g 6 (q2 land c)
    end
  done;
  !n_varying

let split_4 g words cm steady =
  let pins = g.pins and n_varying = ref 0 in
  for k = 0 to g.n_gates - 1 do
    let p = 4 * k in
    let a = words.(pins.(p)) land cm
    and b = words.(pins.(p + 1)) land cm
    and c = words.(pins.(p + 2)) land cm
    and d = words.(pins.(p + 3)) land cm in
    if unsteady a cm lor unsteady b cm lor unsteady c cm lor unsteady d cm = 0
    then begin
      let s =
        (a land 1)
        lor ((b land 1) lsl 1)
        lor ((c land 1) lsl 2)
        lor ((d land 1) lsl 3)
      in
      steady.(s) <- steady.(s) + 1
    end
    else begin
      incr n_varying;
      (* pin-pair masks of pins 0, 1 ([q]) and pins 2, 3 ([r]), by
         their state; state [s] is [q (s land 3) land r (s lsr 2)] *)
      let na = cm lxor a and nb = cm lxor b in
      let nc = cm lxor c and nd = cm lxor d in
      let q0 = na land nb and q1 = a land nb and q2 = na land b in
      let q3 = a land b in
      let r0 = nc land nd and r1 = c land nd and r2 = nc land d in
      let r3 = c land d in
      add_state g 0 (q0 land r0);
      add_state g 1 (q1 land r0);
      add_state g 2 (q2 land r0);
      add_state g 3 (q3 land r0);
      add_state g 4 (q0 land r1);
      add_state g 5 (q1 land r1);
      add_state g 6 (q2 land r1);
      add_state g 7 (q3 land r1);
      add_state g 8 (q0 land r2);
      add_state g 9 (q1 land r2);
      add_state g 10 (q2 land r2);
      add_state g 11 (q3 land r2);
      add_state g 12 (q0 land r3);
      add_state g 13 (q1 land r3);
      add_state g 14 (q2 land r3)
    end
  done;
  !n_varying

let run_session st c chain policy ~vectors ~on_response =
  let n_ff = Scan_chain.length chain in
  let n_nodes = Circuit.node_count c in
  let comp = Compiled.of_circuit c in
  let ps = Sim.Packed_sim.create comp in
  let words = Sim.Packed_sim.words ps in
  let lane_toggles = Sim.Packed_sim.lane_toggles ps in
  let fanin_off = Compiled.fanin_off comp in
  let fanin = Compiled.fanin comp in
  let pi_ids = Circuit.inputs c in
  let ff_by_pos = Array.init n_ff (Scan_chain.cell_at chain) in
  (* per-gate leakage tables (input state -> nA); building them checks
     that the circuit is mapped *)
  let leak_tbl = Power.Leakage.tables c in
  let leak_gates =
    Array.of_list
      (List.filter
         (fun id -> Array.length leak_tbl.(id) > 0)
         (List.init n_nodes Fun.id))
  in
  (* Leakage counting, per frame: a gate whose input state is the same
     on every lane of the frame (steady) adds one to its group's
     per-state [steady] count; only a gate whose state varies has its
     state masks buffered, and one bulk count per group and input state
     gives how many such gates sit in that state at each lane. Each lane's
     total is recomputed from scratch from the exact per-lane integers. *)
  let groups =
    let raw = ref [] in
    Array.iter
      (fun id ->
        let tbl = leak_tbl.(id) in
        match List.find_opt (fun (t, _) -> t == tbl) !raw with
        | Some (_, gids) -> gids := id :: !gids
        | None -> raw := (tbl, ref [ id ]) :: !raw)
      leak_gates;
    List.rev_map
      (fun (tbl, gids) ->
        let gs = List.rev !gids in
        let arity = fanin_off.(List.hd gs + 1) - fanin_off.(List.hd gs) in
        if arity < 1 || arity > 4 then
          invalid_arg
            (Printf.sprintf "Scan_sim: no leakage split for a %d-input gate"
               arity);
        let n_gates = List.length gs in
        {
          tbl;
          arity;
          n_gates;
          pins =
            Array.concat
              (List.map (fun id -> Array.sub fanin fanin_off.(id) arity) gs);
          counter = Lane_counter.create ~max:n_gates;
          masks = Array.make ((Array.length tbl - 1) * n_gates) 0;
          fill = Array.make (Array.length tbl - 1) 0;
          steady = Array.make (Array.length tbl) 0;
        })
      !raw
    |> Array.of_list
  in
  (* Sets of groups are bitmaps: group [gi] is bit [gi], and the groups
     past the 62nd, were there any (there is one table per library
     cell), share bit 62. *)
  let bit gi = 1 lsl min gi 62 in
  let every =
    Array.fold_left ( lor ) 0 (Array.mapi (fun gi _ -> bit gi) groups)
  in
  (* per node: the groups of the gates it feeds *)
  let feeds = Array.make n_nodes 0 in
  Array.iteri
    (fun gi g ->
      Array.iter (fun id -> feeds.(id) <- feeds.(id) lor bit gi) g.pins)
    groups;
  (* the groups in which a gate varied in the last frame; the first
     frame splits every group *)
  let vary = ref every in
  (* one state's per-lane counts, and per lane the varying gates counted
     in the states before the last *)
  let counts = Array.make Compiled.lanes 0 in
  let counted = Array.make Compiled.lanes 0 in
  let na_lane = Array.make Compiled.lanes 0.0 in
  (* [n] gates in state [s] of [tbl] on each of the first [count] lanes *)
  let add_steady ~count tbl s n =
    if n > 0 then begin
      let x = float_of_int n *. tbl.(s) in
      for l = 0 to count - 1 do
        na_lane.(l) <- na_lane.(l) +. x
      done
    end
  in
  let silent_acc = ref 0 and splits = ref 0 in
  (* Account one stepped frame: merge per-lane toggle counts into the
     per-cycle series and rebuild the per-lane leakage totals. Bit [l]
     of [shift] / [cap] is set when lane [l] is a shift / capture cycle;
     every other lane is silent. *)
  let account ~count ~shift ~cap =
    (* the frame's lanes; the lanes above them are never read *)
    let cm = mask_bits 0 (count - 1) in
    Array.fill na_lane 0 count 0.0;
    (* the groups to split: those in which a gate varied in the last
       frame, and those with an active pin *)
    let todo = ref !vary in
    vary := 0;
    let active = Sim.Packed_sim.active ps in
    let n_active = Sim.Packed_sim.active_count ps in
    for i = 0 to n_active - 1 do
      todo := !todo lor feeds.(active.(i))
    done;
    for gi = 0 to Array.length groups - 1 do
      let g = groups.(gi) in
      let n_states = Array.length g.tbl in
      let last = n_states - 1 in
      let steady = g.steady in
      let n_varying =
        if !todo land bit gi = 0 then 0
        else begin
          Array.fill steady 0 n_states 0;
          splits := !splits + g.n_gates;
          let nv =
            match g.arity with
            | 1 -> split_1 g words cm steady
            | 2 -> split_2 g words cm steady
            | 3 -> split_3 g words cm steady
            | _ -> split_4 g words cm steady
          in
          if nv > 0 then vary := !vary lor bit gi;
          nv
        end
      in
      (* the same per-lane integer and the same (group, state, lane)
         summation order whichever way a gate was counted *)
      if n_varying > 0 then Array.fill counted 0 count 0;
      for s = 0 to last - 1 do
        let coef = g.tbl.(s) and n0 = steady.(s) in
        let f = g.fill.(s) in
        if f > 0 then begin
          Lane_counter.count g.counter g.masks ~off:(s * g.n_gates) ~len:f
            counts;
          g.fill.(s) <- 0;
          for l = 0 to count - 1 do
            let v = counts.(l) in
            counted.(l) <- counted.(l) + v;
            (* adding 0.0 for no gates leaves the sum as it is:
               branch-free *)
            na_lane.(l) <- na_lane.(l) +. (float_of_int (n0 + v) *. coef)
          done
        end
        else add_steady ~count g.tbl s n0
      done;
      (* the last state holds every varying gate the others did not *)
      let n0 = steady.(last) + n_varying in
      if n_varying > 0 then begin
        let coef = g.tbl.(last) in
        for l = 0 to count - 1 do
          na_lane.(l) <- na_lane.(l) +. (float_of_int (n0 - counted.(l)) *. coef)
        done
      end
      else add_steady ~count g.tbl last n0
    done;
    let counted_lanes = shift lor cap in
    for l = 0 to count - 1 do
      if (counted_lanes lsr l) land 1 = 0 then
        silent_acc := !silent_acc + lane_toggles.(l)
      else begin
        note_cycle st
          ~capture:((cap lsr l) land 1 <> 0)
          ~toggles:(lane_toggles.(l) + !silent_acc)
          ~na:na_lane.(l);
        silent_acc := 0
      end
    done
  in
  (* leakage of the settled state at the current frame boundary *)
  let settled_na () =
    Array.fold_left
      (fun acc id ->
        let lo = fanin_off.(id) and hi = fanin_off.(id + 1) in
        let s = ref 0 in
        for i = lo to hi - 1 do
          if Sim.Packed_sim.final_value ps fanin.(i) then
            s := !s lor (1 lsl (i - lo))
        done;
        acc +. leak_tbl.(id).(!s))
      0.0 leak_gates
  in
  (* currently-applied flip-flop source values, by chain position *)
  let ff_prev =
    Array.init n_ff (fun j ->
        match st.forced.(j) with Some v -> v | None -> st.chain_state.(j))
  in
  let n_shift = Scan_chain.shift_cycles chain in
  (* per chain position: the stream offset of the cell's pre-shift bit
     (see the header comment); chain [i]'s stream takes its [m] cells'
     bits and [n_shift] scan-in bits *)
  let off = Array.make n_ff 0 in
  let stream_bits =
    Array.fold_left
      (fun at (start, m) ->
        for p = 0 to m - 1 do
          off.(start + p) <- at + m - 1 - p
        done;
        at + m + n_shift)
      0 (spans chain)
  in
  (* reusable packed shift stream (see the header comment) *)
  let stream =
    Array.make (((stream_bits + Compiled.lanes - 1) / Compiled.lanes) + 2) 0
  in
  let seg_words = Array.length stream in
  let set_stream i v =
    if v then begin
      let w = i / Compiled.lanes and b = i mod Compiled.lanes in
      stream.(w) <- stream.(w) lor (1 lsl b)
    end
  in
  (* The frame being filled: its first [fill] lanes are written into the
     source words, and bits of [shift_lanes] / [cap_lanes] give their
     roles. Lane 0 of the first frame is the settle, stepped uncounted. *)
  let fill = ref 0 and shift_lanes = ref 0 and cap_lanes = ref 0 in
  let from = ref 1 and total_na = ref 0.0 in
  let flush () =
    let count = !fill in
    Sim.Packed_sim.step ps ~from:!from ~count;
    account ~count ~shift:!shift_lanes ~cap:!cap_lanes;
    total_na := na_lane.(count - 1);
    Array.iter (fun id -> words.(id) <- 0) pi_ids;
    Array.iter (fun id -> words.(id) <- 0) ff_by_pos;
    fill := 0;
    shift_lanes := 0;
    cap_lanes := 0;
    from := 0
  in
  (* the settle lane, in shift mode at the init chain state *)
  let init_pi = shift_pi policy st.first_pi in
  Array.iteri (fun i id -> words.(id) <- Bool.to_int init_pi.(i)) pi_ids;
  Array.iteri (fun j id -> words.(id) <- Bool.to_int ff_prev.(j)) ff_by_pos;
  fill := 1;
  (* One segment: lane 0 = silent pre-application of [spi], lanes
     1..n_shift the shift cycles, then (for a test segment, [cap = Some
     (capture_pi, target)]) the capture lane.  [s0] is the chains before
     the first shift. A test segment scans [target] in, in the order of
     {!Scan_chain.shift_in_sequence}; the final shift-out scans in
     zeros. The segment's lanes continue the frame from lane [fill];
     every frame it fills is stepped. *)
  let emit_segment ~spi ~cap ~s0 =
    Array.fill stream 0 seg_words 0;
    for j = 0 to n_ff - 1 do
      set_stream off.(j) s0.(j)
    done;
    (match cap with
    | Some (_, target) ->
      for j = 0 to n_ff - 1 do
        set_stream (off.(j) + n_shift) target.(j)
      done
    | None -> ());
    let has_cap = cap <> None in
    let seg_len = 1 + n_shift + if has_cap then 1 else 0 in
    let cap_s = if has_cap then n_shift + 1 else -1 in
    let base = ref 0 in
    while !base < seg_len do
      let b = !base and f = !fill in
      let count = min (Compiled.lanes - f) (seg_len - b) in
      (* segment lanes [b .. b + count - 1] land on frame lanes [f ..]:
         [m_ps] = pre-application + shift lanes (segment lane <=
         n_shift), [m_shift] = real shift cycles only (segment lanes
         1..n_shift), [m_cap] = the capture lane bit *)
      let m_ps = mask_bits 0 (min (count - 1) (n_shift - b)) lsl f in
      let m_shift =
        mask_bits (max 0 (1 - b)) (min (count - 1) (n_shift - b)) lsl f
      in
      let cap_l = cap_s - b in
      let m_cap =
        if has_cap && cap_l >= 0 && cap_l < count then 1 lsl (cap_l + f)
        else 0
      in
      (match cap with
      | Some (cap_pi, _) ->
        Array.iteri
          (fun i id ->
            let w = if spi.(i) then m_ps else 0 in
            words.(id) <-
              words.(id) lor if cap_pi.(i) then w lor m_cap else w)
          pi_ids
      | None ->
        Array.iteri
          (fun i id -> if spi.(i) then words.(id) <- words.(id) lor m_ps)
          pi_ids);
      for j = 0 to n_ff - 1 do
        let w =
          if policy.hold_previous_capture then if ff_prev.(j) then m_ps else 0
          else begin
            let shifts =
              match st.forced.(j) with
              | Some v -> if v then m_shift else 0
              | None -> (window stream (off.(j) + b) lsl f) land m_shift
            in
            if b = 0 && ff_prev.(j) then shifts lor (1 lsl f) else shifts
          end
        in
        let id = ff_by_pos.(j) in
        words.(id) <-
          (words.(id)
          lor
          match cap with
          | Some (_, target) when target.(j) -> w lor m_cap
          | _ -> w)
      done;
      shift_lanes := !shift_lanes lor m_shift;
      cap_lanes := !cap_lanes lor m_cap;
      fill := f + count;
      base := b + count;
      if !fill = Compiled.lanes then flush ()
    done
  in
  (* The response pre-pass: the capture responses of up to 63 vectors,
     one per lane of [scratch] (nothing is counted), into [resp]: bit
     [k] of [resp.(j)] is what chain position [j] captures for the
     block's vector [k]. *)
  let scratch = Array.make n_nodes 0 in
  let resp = Array.make n_ff 0 in
  let d_by_pos = Array.map (fun id -> fanin.(fanin_off.(id))) ff_by_pos in
  let respond block =
    Array.iter (fun id -> scratch.(id) <- 0) pi_ids;
    Array.iter (fun id -> scratch.(id) <- 0) ff_by_pos;
    Array.iteri
      (fun k (pi, target) ->
        let bit = 1 lsl k in
        Array.iteri
          (fun i id -> if pi.(i) then scratch.(id) <- scratch.(id) lor bit)
          pi_ids;
        Array.iteri
          (fun j id ->
            if target.(j) then scratch.(id) <- scratch.(id) lor bit)
          ff_by_pos)
      block;
    Compiled.eval_lanes comp scratch;
    Array.iteri (fun j d -> resp.(j) <- scratch.(d)) d_by_pos
  in
  (* the next [k] vectors, split, and the rest *)
  let rec take k acc = function
    | v :: rest when k > 0 -> take (k - 1) (split_vector c chain v :: acc) rest
    | rest -> (Array.of_list (List.rev acc), rest)
  in
  let rec blocks = function
    | [] -> ()
    | vs ->
      let block, rest = take Compiled.lanes [] vs in
      respond block;
      Array.iteri
        (fun k (pi, target) ->
          emit_segment ~spi:(shift_pi policy pi) ~cap:(Some (pi, target))
            ~s0:st.chain_state;
          let response =
            Array.init n_ff (fun j -> (resp.(j) lsr k) land 1 <> 0)
          in
          Array.blit target 0 ff_prev 0 n_ff;
          Array.blit response 0 st.chain_state 0 n_ff;
          on_response response)
        block;
      blocks rest
  in
  blocks vectors;
  (* final shift-out of the last response (scan-ins pumped with zeros) *)
  if vectors <> [] then
    emit_segment ~spi:(shift_pi policy st.first_pi) ~cap:None
      ~s0:st.chain_state;
  if !fill > 0 then flush ();
  (* invariant: the per-lane leakage total equals a full recompute *)
  let full = settled_na () in
  assert (Float.abs (!total_na -. full) < 1e-6 *. Float.max 1.0 full);
  st.per_node <- Array.copy (Sim.Packed_sim.toggles ps);
  st.total <- Sim.Packed_sim.total_toggles ps;
  st.node_evals <- Sim.Packed_sim.node_evals ps;
  st.gate_splits <- !splits

(* ------------------------------------------------------------------ *)

let run ?init_state c chain policy ~vectors ~on_response =
  let st = start ?init_state c chain policy ~vectors in
  run_session st c chain policy ~vectors ~on_response;
  Telemetry.Counter.inc m_sessions;
  Telemetry.Counter.add m_cycles (st.n_shift + st.n_capture);
  Telemetry.Counter.add m_toggles st.total;
  Telemetry.Counter.add m_node_evals st.node_evals;
  Telemetry.Counter.add m_gate_splits st.gate_splits;
  st

let mean sum n = if n = 0 then 0.0 else sum /. float_of_int n

let measure ?init_state c chain policy ~vectors =
  let st = run ?init_state c chain policy ~vectors ~on_response:ignore in
  let cycles = max (st.n_shift + st.n_capture) 1 in
  {
    cycles;
    shift_cycles = st.n_shift;
    toggles = st.per_node;
    total_toggles = st.total;
    per_cycle_toggles = st.per_cycle;
    dynamic = Power.Switching.of_toggles c ~toggles:st.per_node ~cycles;
    avg_static_uw = mean st.leak.sum_shift st.n_shift;
    peak_static_uw = st.leak.peak;
    avg_capture_static_uw = mean st.leak.sum_capture st.n_capture;
  }

let responses ?init_state c chain policy ~vectors =
  let acc = ref [] in
  let (_ : stats) =
    run ?init_state c chain policy ~vectors ~on_response:(fun r ->
        acc := Array.copy r :: !acc)
  in
  List.rev !acc
