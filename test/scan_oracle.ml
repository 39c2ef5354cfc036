(* The scan-replay oracle: the test-per-scan protocol of
   {!Scan.Scan_sim}, replayed one cycle at a time on the event-driven
   simulator ({!Event_sim}), with every gate's leakage kept
   incrementally. It shares no code with [Scan_sim] beyond the policy
   and result types — its own validation, cycle loop and tallies — so a
   fault in the packed session or in its per-cycle bookkeeping cannot
   hide in the check. The leakage sums are taken in the order the s344
   seed goldens were frozen with, so they reproduce those bit for bit;
   against the packed simulator the statics agree to float
   accumulation order, everything else exactly. *)

open Netlist

(* Split a source vector into its PI part and its chain-position-indexed
   state part. *)
let split_vector c chain vec =
  let n_pi = Array.length (Circuit.inputs c) in
  let dffs = Circuit.dffs c in
  if Array.length vec <> n_pi + Array.length dffs then
    invalid_arg "Scan_sim: vector length mismatch";
  let by_pos = Array.make (Array.length dffs) false in
  Array.iteri
    (fun i id -> by_pos.(Scan.Scan_chain.position_of chain id) <- vec.(n_pi + i))
    dffs;
  (Array.sub vec 0 n_pi, by_pos)

(* (first chain position, length) of each chain *)
let spans chain =
  List.fold_left
    (fun (start, acc) n -> (start + n, (start, n) :: acc))
    (0, []) (Scan.Scan_chain.chain_lengths chain)
  |> snd |> List.rev |> Array.of_list

type session = {
  circuit : Circuit.t;
  chain : Scan.Scan_chain.t;
  spans : (int * int) array;
  policy : Scan.Scan_sim.policy;
  forced : bool option array; (* by chain position *)
  chain_state : bool array; (* by chain position *)
  sim : Event_sim.t;
  (* incremental leakage bookkeeping: per-gate current leakage and the
     running total, updated only for gates whose fanins toggled *)
  gate_leak_na : float array;
  mutable total_leak_na : float;
  touched_stamp : int array;
  mutable stamp : int;
  (* the tally *)
  mutable toggles_at_last_cycle : int;
  mutable per_cycle : int list; (* newest first *)
  mutable n_shift : int;
  mutable n_capture : int;
  mutable sum_shift_uw : float;
  mutable sum_capture_uw : float;
  mutable peak_uw : float;
}

(* Recompute every gate's leakage from the simulator's values. *)
let rebuild_leakage s =
  let values = Event_sim.values s.sim in
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
  let values = Event_sim.values s.sim in
  s.stamp <- s.stamp + 1;
  let stamp = s.stamp in
  Event_sim.iter_last_changes s.sim (fun id ->
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

(* One counted cycle: its toggles, and the leakage of the state it
   settled in. *)
let after_cycle s ~capture =
  let total = Event_sim.total_toggles s.sim in
  s.per_cycle <- (total - s.toggles_at_last_cycle) :: s.per_cycle;
  s.toggles_at_last_cycle <- total;
  let uw = s.total_leak_na *. Techlib.Leakage_table.vdd /. 1000.0 in
  if capture then begin
    s.sum_capture_uw <- s.sum_capture_uw +. uw;
    s.n_capture <- s.n_capture + 1
  end
  else begin
    s.sum_shift_uw <- s.sum_shift_uw +. uw;
    s.n_shift <- s.n_shift + 1
  end;
  if uw > s.peak_uw then s.peak_uw <- uw

(* Pseudo-input value presented to the logic for the flip-flop at chain
   position [pos] while Shift Enable is high. *)
let shift_value s pos =
  match s.forced.(pos) with Some v -> v | None -> s.chain_state.(pos)

let shift_pi s current =
  match s.policy.Scan.Scan_sim.pi_during_shift with
  | Some p -> p
  | None -> current

(* every source application immediately folds its toggles into the
   leakage bookkeeping, so consecutive change sets are never lost *)
let apply_sources s changes =
  ignore (Event_sim.set_sources s.sim changes);
  refresh_leakage s

let pi_changes c pi_values =
  Array.to_list
    (Array.mapi (fun i id -> (id, pi_values.(i))) (Circuit.inputs c))

(* One shift cycle: every chain moves by one, chain [k]'s scan-in
   receives [bits.(k)]. With [hold_previous_capture] (enhanced scan)
   the pseudo-inputs keep their captured values while the chains ripple
   internally, so the logic sees no shift activity at all. *)
let shift_cycle s bits =
  let chain_state = s.chain_state in
  Array.iteri
    (fun k (start, len) ->
      if len > 0 then begin
        Array.blit chain_state start chain_state (start + 1) (len - 1);
        chain_state.(start) <- bits.(k)
      end)
    s.spans;
  if not s.policy.Scan.Scan_sim.hold_previous_capture then begin
    let changes = ref [] in
    for pos = 0 to Array.length chain_state - 1 do
      let id = Scan.Scan_chain.cell_at s.chain pos in
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
  let chain_state = s.chain_state in
  let n = Array.length chain_state in
  let changes = ref (pi_changes c pi_values) in
  for pos = 0 to n - 1 do
    let id = Scan.Scan_chain.cell_at s.chain pos in
    changes := (id, chain_state.(pos)) :: !changes
  done;
  apply_sources s !changes;
  after_cycle s ~capture:true;
  let values = Event_sim.values s.sim in
  let response = Array.make n false in
  Array.iter
    (fun id ->
      let d = (Circuit.node c id).Circuit.fanins.(0) in
      response.(Scan.Scan_chain.position_of s.chain id) <- values.(d))
    (Circuit.dffs c);
  Array.blit response 0 chain_state 0 n;
  response

let run ?init_state c chain (policy : Scan.Scan_sim.policy) ~vectors
    ~on_response =
  let n_ff = Scan.Scan_chain.length chain in
  let forced = Array.make n_ff None in
  List.iter
    (fun (id, v) ->
      if not (Gate.equal_kind (Circuit.node c id).Circuit.kind Gate.Dff) then
        invalid_arg "Scan_sim: forced node is not a flip-flop";
      forced.(Scan.Scan_chain.position_of chain id) <- Some v)
    policy.Scan.Scan_sim.forced_pseudo;
  (match policy.Scan.Scan_sim.pi_during_shift with
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
  let n = Circuit.node_count c in
  let s =
    {
      circuit = c;
      chain;
      spans = spans chain;
      policy;
      forced;
      chain_state;
      sim = Event_sim.create c;
      gate_leak_na = Array.make n 0.0;
      total_leak_na = 0.0;
      touched_stamp = Array.make n 0;
      stamp = 0;
      toggles_at_last_cycle = 0;
      per_cycle = [];
      n_shift = 0;
      n_capture = 0;
      sum_shift_uw = 0.0;
      sum_capture_uw = 0.0;
      peak_uw = 0.0;
    }
  in
  (* initial settle (not counted): shift mode, chain at init state *)
  let init_pi = shift_pi s first_pi in
  let pi_pos = Hashtbl.create 16 in
  Array.iteri (fun i id -> Hashtbl.replace pi_pos id i) (Circuit.inputs c);
  Event_sim.init s.sim (fun id ->
      match Hashtbl.find_opt pi_pos id with
      | Some i -> init_pi.(i)
      | None -> shift_value s (Scan.Scan_chain.position_of chain id));
  rebuild_leakage s;
  List.iter
    (fun vec ->
      let pi, target_state = split_vector c chain vec in
      (* drive the shift-mode PI pattern (counted with the first shift:
         it is a real change after the previous capture) *)
      apply_sources s (pi_changes c (shift_pi s pi));
      List.iter (shift_cycle s)
        (Scan.Scan_chain.shift_in_sequence chain target_state);
      on_response (capture_cycle s pi))
    vectors;
  (* final shift-out of the last response (scan-ins pumped with zeros) *)
  if vectors <> [] then begin
    apply_sources s (pi_changes c (shift_pi s first_pi));
    let zeros = Array.make (Scan.Scan_chain.chain_count chain) false in
    for _ = 1 to Scan.Scan_chain.shift_cycles chain do
      shift_cycle s zeros
    done
  end;
  (* invariant: the incremental leakage total equals a full recompute *)
  let accumulated = s.total_leak_na in
  rebuild_leakage s;
  assert (
    Float.abs (accumulated -. s.total_leak_na)
    < 1e-6 *. Float.max 1.0 s.total_leak_na);
  s

let mean sum n = if n = 0 then 0.0 else sum /. float_of_int n

let measure ?init_state c chain policy ~vectors : Scan.Scan_sim.result =
  let s = run ?init_state c chain policy ~vectors ~on_response:ignore in
  let cycles = max (s.n_shift + s.n_capture) 1 in
  let toggles = Array.copy (Event_sim.toggle_counts s.sim) in
  {
    Scan.Scan_sim.cycles;
    shift_cycles = s.n_shift;
    toggles;
    total_toggles = Event_sim.total_toggles s.sim;
    per_cycle_toggles = Array.of_list (List.rev s.per_cycle);
    dynamic = Power.Switching.of_toggles c ~toggles ~cycles;
    avg_static_uw = mean s.sum_shift_uw s.n_shift;
    peak_static_uw = s.peak_uw;
    avg_capture_static_uw = mean s.sum_capture_uw s.n_capture;
  }

let responses ?init_state c chain policy ~vectors =
  let acc = ref [] in
  ignore
    (run ?init_state c chain policy ~vectors ~on_response:(fun r ->
         acc := Array.copy r :: !acc));
  List.rev !acc
