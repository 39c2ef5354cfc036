(** Flat compiled form of a circuit for hot simulation loops.

    {!Circuit.t} stores one heap object per node with its own fanin and
    fanout arrays — convenient for construction and transformation, but
    every simulator inner loop then chases two pointers per edge and is
    tempted into per-evaluation allocation ([Array.map] over fanins).
    [Compiled.t] is the read-only answer: one shared CSR fanin array
    (plus per-node offsets), the same for fanouts, integer gate opcodes,
    and the precomputed topological order and levels, all in flat [int]
    arrays. Simulators index, never allocate.

    The compiled form is a snapshot: {!Circuit.permute_fanins} on the
    source circuit is not reflected — recompile after structural edits
    (every simulation session compiles its own snapshot, so the normal
    flow never observes staleness). *)

type t

val of_circuit : Circuit.t -> t
(** One pass over the nodes; O(nodes + edges). *)

val circuit : t -> Circuit.t
val node_count : t -> int

(** {1 Opcodes}

    Dense integer encoding of {!Gate.kind} so inner loops can match on
    an immediate instead of a constructor load. Sources are the two
    smallest opcodes, so [opcode <= op_dff] is the source test. *)

val op_input : int
val op_dff : int
val op_output : int
val op_buf : int
val op_not : int
val op_and : int
val op_nand : int
val op_or : int
val op_nor : int
val op_xor : int
val op_xnor : int

val opcode_of_kind : Gate.kind -> int
val kind_of_opcode : int -> Gate.kind

val is_source : t -> int -> bool
val is_logic : t -> int -> bool

(** {1 Flat arrays}

    All accessors return the internal arrays — aliased, do not mutate.
    Hot loops should hoist them out of the loop once. *)

val opcode : t -> int array
(** Per node id. *)

val fanin_off : t -> int array
(** Length [node_count + 1]; fanins of node [i] are
    [fanin.(fanin_off.(i)) .. fanin.(fanin_off.(i+1) - 1)], in the same
    pin order as [Circuit.node.fanins]. *)

val fanin : t -> int array

val fanout_off : t -> int array
val fanout : t -> int array

val topo : t -> int array
(** Combinational topological order (sources first), as
    {!Circuit.topo_order}. *)

val eval_order : t -> int array
(** [topo] restricted to non-source nodes: exactly the nodes a
    combinational sweep must evaluate, in evaluation order. *)

val levels : t -> int array
val max_level : t -> int

val level_population : t -> int array
(** [level_population.(l)] = number of non-source nodes at level [l]
    (index 0 .. [max_level]); sizes exact per-level event buckets. *)

(** {1 Structural fault-propagation preprocessing}

    All with respect to the combinational core: a DFF node never
    propagates (its D pin is where an effect is observed), so the
    propagation DAG is the fanout graph minus edges into DFFs. *)

val observable : t -> bool array
(** [observable.(id)] iff a value change on node [id] is directly
    observed: primary-output marker nodes and flip-flop D-pin
    drivers. *)

val reaches_observable : t -> bool array
(** [reaches_observable.(id)] iff [id] is observable or some
    propagation path from [id] ends at an observable; events on other
    nodes can never contribute to detection. *)

val ffr_stem : t -> int array
(** [ffr_stem.(id)] is the stem of the fanout-free region containing
    [id]: the first node on the single-fanout chain from [id] with
    zero or several fanout edges, or whose unique consumer is a DFF.
    Stems map to themselves. Inside an FFR every node has exactly one
    path to the stem, so single-fault sensitization composes exactly
    (critical path tracing is exact within an FFR). *)

(** {1 Allocation-free evaluation} *)

val eval_bool : t -> bool array -> int -> bool
(** Two-valued evaluation of one non-source node from a node-indexed
    value array. No heap allocation.
    @raise Invalid_argument on a source node. *)

val eval_logic : t -> Logic.t array -> int -> Logic.t
(** Three-valued (0/1/X) evaluation of one non-source node, with the
    semantics of {!Logic}'s operators. No heap allocation.
    @raise Invalid_argument on a source node. *)

val eval_logics : t -> Logic.t array -> unit
(** [eval_logic] over every node of [eval_order], in place: one full
    three-valued sweep. Source entries are read, never written. *)

val lanes : int
(** 63: the lanes of an OCaml [int], the word of every bit-parallel
    kernel. *)

val eval_lanes : t -> int array -> unit
(** Two-valued bit-parallel sweep over every node of [eval_order], in
    place, on native [int] words: lane [l] of a node is bit [l] of its
    word, for the {!lanes} lanes of an OCaml [int]. No heap allocation.
    INV and NAND/NOR with two to four pins (the mapped library's cells)
    run straight-line code keyed on a per-gate code precomputed by
    {!of_circuit}; every other gate runs a fold over its pins.
    The one word evaluator: fault simulation ([Atpg.Fault_simulation]
    packs 63 test vectors per word) calls it, and {!eval_events} runs
    the same code on the nodes a scan frame reaches ([Sim.Packed_sim]
    packs 63 consecutive scan cycles per word). *)

(** {1 Event-driven word evaluation}

    A run of frames of words in which most nodes keep one value
    evaluates only what each frame's changes can reach. Between frames
    every non-source word that did not change holds the broadcast of
    its node's value on all 63 lanes, so it is right for any later
    frame, whatever that frame's lane count. The nodes to evaluate are
    marked by {!eval_order} position, 32 positions to a bitmap word,
    and evaluated one by one in that order; each node that changed
    marks its consumers. The first frame, and a frame in which more
    than an eighth of the sources changed, evaluates every node in one
    run of {!eval_lanes}' code instead: a node whose inputs did not
    change comes out as its broadcast. *)

type events
(** The state an event-driven run of frames carries from one frame to
    the next, and what the last frame evaluated. *)

val events : t -> events
(** Before the first frame: that frame evaluates every node. *)

val eval_events :
  t -> int array -> base:int array -> count:int -> events -> unit
(** [eval_events t words ~base ~count ev] steps one frame of [count]
    lanes (1..63). The caller has written the source words, and
    [base.(id)] (0 or 1) is each node's value in the previous frame's
    final lane (0 for every node before the first frame).

    The call extends each source word past lane [count - 1] with that
    lane's value and lists the {!active} sources: those whose word, on
    the frame's lanes, is not the broadcast of [base.(id)]. It then
    evaluates, by the code of {!eval_lanes} and in {!eval_order}, the
    non-source nodes that the active nodes can reach, following each
    active node to its consumers, and lists the active ones; every
    other non-source node holds the broadcast of its value on all 63
    lanes. So on the frame's lanes every word is the one a full
    {!eval_lanes} sweep gives, and only the listed nodes can have
    toggled.

    Between frames the caller leaves the non-source words alone and
    sets [base] to each active node's final-lane value; the next frame
    restores the active nodes that it does not evaluate to the
    broadcast of that value. No heap allocation.
    @raise Invalid_argument unless [1 <= count <= 63], or if [ev] or
    [base] is not sized for [t]. *)

val active : events -> int array
(** The last frame's active nodes, entries [0 .. active_count ev - 1]:
    the sources first, then the others in {!eval_order} (aliased). A
    node is active when its word, on the frame's lanes, is not the
    broadcast of [base.(id)]. *)

val active_count : events -> int

val evaluations : events -> int
(** Node evaluations over all frames. *)
