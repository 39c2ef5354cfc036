(** Cycle-accurate scan-shift power measurement.

    For every test vector the simulator replays the full test-per-scan
    protocol: {!Scan_chain.shift_cycles} shift cycles, in each of which
    every chain moves by one (simultaneously shifting the previous
    response out and the next state in; a chain shorter than the
    longest takes leading zeros so all chains are loaded at the
    capture), then one capture cycle with the test's primary-input part
    applied, with a final shift-out after the last capture. Per-cycle
    node toggles accumulate into the Eq. (1) dynamic figure; per-cycle
    leakage snapshots give the average and peak static power during
    scan.

    The [policy] describes what the paper's hardware does during shift:

    - traditional scan: primary inputs simply hold the current test's
      PI part, every pseudo-input follows the rippling chain;
    - input control [8]: primary inputs hold a computed blocking
      pattern (restored to the test values for each capture cycle);
    - the proposed structure: additionally, multiplexed scan-cell
      outputs are forced to chosen constants while Shift Enable is
      high.

    The simulation packs 63 consecutive scan cycles per native [int]
    word ({!Sim.Packed_sim}; no allocation per frame or cycle), and
    per-cycle toggles are recovered from lane-to-lane XORs: a cycle's
    toggles are the Hamming distance between consecutive settled
    states. The whole session is one lane stream — the initial settle,
    per vector a silent pre-application, the shifts and the capture,
    then the final shift-out — stepped 63 lanes a frame wherever the
    vectors start, so a frame holds several vectors on a short chain.
    The capture responses are computed first, 63 vectors per word, so
    no vector's shifts wait for the frame holding the previous capture.
    Per frame, a gate whose input state is the same on every lane is
    counted once, in that state; only gates whose state varies within
    the frame have their per-state lane masks buffered and bulk-counted
    (per leakage table and input state, how many gates sit in that
    state at each lane). Frames are event-driven: a frame evaluates and
    diffs only what its changed sources reach, and a leakage table's
    gates keep last frame's counts when none of their inputs changed
    and none of them varied the frame before. *)

open Netlist

type policy = {
  pi_during_shift : bool array option;
      (** [None]: hold the current test's PI values (traditional).
          [Some pattern]: drive this pattern during every shift cycle. *)
  forced_pseudo : (int * bool) list;
      (** Muxed flip-flops, as (dff node id, forced value): their
          pseudo-input is pinned during shift and reconnected to the
          scan cell for capture. *)
  hold_previous_capture : bool;
      (** Enhanced scan ([5] and the hold-latch structures of the
          related work): every scan-cell output is latched at its last
          captured value for the whole shift phase, so no chain ripple
          reaches the logic — at the cost of a latch per cell and the
          performance impact the paper's method avoids. *)
}

val traditional : policy

val enhanced_scan : policy

type result = {
  cycles : int;  (** total clock cycles simulated *)
  shift_cycles : int;
  toggles : int array;  (** per-node toggle counts over all cycles *)
  total_toggles : int;
  per_cycle_toggles : int array;
      (** toggles caused by each simulated cycle, in order — feeds the
          peak-power analysis ({!Power.Peak}) *)
  dynamic : Power.Switching.report;
  avg_static_uw : float;  (** mean leakage over shift cycles *)
  peak_static_uw : float;
  avg_capture_static_uw : float;  (** mean leakage at capture cycles *)
}

val measure :
  ?init_state:bool array ->
  Circuit.t ->
  Scan_chain.t ->
  policy ->
  vectors:bool array list ->
  result
(** [vectors] are fully-specified source assignments (positional over
    [Circuit.sources]): the PI part is applied at capture, the state
    part is shifted in.  [init_state] (default all zeros) is the chains'
    contents before the first shift, indexed by chain position (see
    {!Scan_chain}).
    @raise Invalid_argument on malformed vectors, forced non-dff nodes
    or an unmapped circuit. *)

val responses :
  ?init_state:bool array ->
  Circuit.t ->
  Scan_chain.t ->
  policy ->
  vectors:bool array list ->
  bool array list
(** Captured response per vector: the chains' contents after each
    capture, indexed by chain position as [init_state] is (chain 0's
    cells first), not in [Circuit.dffs] order. Used to check that the
    power-reduction policies leave test behaviour untouched. *)
