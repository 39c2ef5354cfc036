(** Pattern-parallel stuck-at fault simulation.

    Patterns are packed {!Netlist.Compiled.lanes} (63) to a native
    [int] word, swept through the good machine by
    {!Netlist.Compiled.eval_lanes}, and compared against it at the
    observable lines (primary outputs and flip-flop D pins) by critical
    path tracing: inside each fanout-free region, activation and
    sensitization compose lane-wise up to the FFR stem; the stem's
    difference word then propagates event-driven through per-level
    buckets, exiting as soon as the difference dies or the event
    frontier collapses onto a propagation dominator whose
    observability is already memoized for the batch. The result is
    exact: the tests hold it fault for fault to a full-cone
    resimulation oracle.

    Faults detected by one 63-pattern batch are dropped from every
    later batch. No result depends on the batch width: {!split}'s
    detected set is the union of what each vector detects, and
    {!effective_subset} equals the one-vector-at-a-time reverse walk.
    All entry points accept an optional persistent {!machine} so a
    caller running many rounds over one circuit (ATPG phases, sweeps)
    pays for compilation and the FFR and reachability tables once.
    Dominators need no table: the event frontier finds them as it
    collapses. *)

open Netlist

type machine
(** Persistent per-circuit simulation state: the compiled CSR form,
    packed good values and the stamped scratch the fault evaluation
    runs against. Reusable across any number of vector batches; not
    thread-safe. *)

val make : Circuit.t -> machine
(** Compile [c] and allocate all scratch. *)

val split :
  ?machine:machine ->
  Circuit.t ->
  faults:Fault.t list ->
  vectors:bool array list ->
  Fault.t list * Fault.t list
(** [(detected, undetected)] partition of the fault list under the
    fully-specified source vectors (positional over
    [Circuit.sources]); both halves preserve original fault order.
    When [machine] is given it must have been made from this very
    [Circuit.t] value (physical equality — the compiled form is a
    snapshot); otherwise a fresh machine is built. Faults detected by
    an earlier batch are not re-simulated by later ones (dropped
    counts land in the [atpg.fault_sim.dropped_faults] counter).
    @raise Invalid_argument on a machine/circuit mismatch. *)

val coverage :
  ?machine:machine ->
  Circuit.t ->
  faults:Fault.t list ->
  vectors:bool array list ->
  float
(** Fraction of the fault list detected. *)

val effective_subset :
  ?machine:machine ->
  Circuit.t ->
  faults:Fault.t list ->
  vectors:bool array list ->
  bool array list
(** Reverse-order static compaction: walk the vector batches from last
    to first with cross-batch fault dropping and keep only vectors
    that detect at least one fault no later-kept vector detects; the
    result (in original order) detects the same fault set as the full
    list. *)
