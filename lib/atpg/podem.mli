(** PODEM test-pattern generation for single stuck-at faults on the
    combinational core of a full-scan circuit (controllable lines:
    primary inputs and flip-flop outputs; observable lines: primary
    outputs and flip-flop D pins).

    One {!t} serves every fault of a circuit. {!make} compiles the
    circuit once into the {!Netlist.Compiled} CSR arrays and allocates
    all scratch: source positions, observables, topological positions,
    backtrace costs, five-valued values, the value trail, the stack of
    D-carrying nodes, the level buckets and the decision stack. Every
    value change goes on the trail, and implication only ever turns X
    into a known value, so backtracking pops the trail back to a
    decision's mark instead of implying again, and {!generate} re-arms
    the engine for the next fault by popping the previous fault's
    trail. The search then runs without allocating until it returns.
    Detection is a count of observable D-carrying nodes, and the
    D-frontier comes from the fanouts of the D-carrying nodes.
    Implication queues a fanout only while it is X: a known node is
    settled, since implication never changes a known value. A gate of
    one to four inputs is evaluated by one lookup in a five-valued
    table for its opcode and arity ({!gate_table}); the faulted gate
    and wider gates fold 5x5 tables pin by pin. Every table is built
    from {!Netlist.Logic.Five} in fanin order, so the search sees
    exactly the D-algebra of that module.

    Telemetry counters, each named [atpg.podem.<name>]: [faults],
    [decisions], [backtracks], [aborted], [refuted], [evals] (node
    evaluations during implication, added once per search) and
    [iteration_aborts] (aborts ended by the 400-iteration cap rather
    than the backtrack limit; 0 on all twelve Table I circuits, where
    every abort ends on the backtrack limit).

    Before it searches, {!generate} runs the {!Implication} screen on
    the fault: a contradiction by implication alone proves the fault
    untestable, and the search is skipped. *)

open Netlist

type result =
  | Test of Logic.t array
      (** Test cube over [Circuit.sources c] (positional); unassigned
          positions are [X] and may be filled freely. *)
  | Untestable
      (** Proven redundant: by implication, or by a search that
          exhausted the input space. *)
  | Aborted  (** Backtrack or iteration limit exceeded. *)

type t
(** Per-circuit PODEM state; reusable across any number of faults, not
    thread-safe. *)

val make : ?guide:Scoap.t -> Circuit.t -> t
(** [make c] builds the engine for [c]. With [guide] (computed on [c]),
    backtrace decisions follow SCOAP controllabilities instead of
    circuit depth. The engine works on a compiled snapshot of [c]:
    rebuild it after {!Circuit.permute_fanins}. *)

val generate : ?backtrack_limit:int -> t -> Fault.t -> result
(** Run PODEM for one fault of the engine's circuit. [backtrack_limit]
    defaults to 100. A fixed cap of 400 search iterations bounds the
    total work per fault (hard-to-prove redundant faults otherwise
    dominate the runtime on large circuits). A fault the {!Implication}
    screen refutes returns [Untestable] without a search and counts no
    decision or backtrack. *)

val search : ?backtrack_limit:int -> t -> Fault.t -> result
(** {!generate} without the implication screen: the search alone, the
    reference the screen is checked against. A fault the screen
    refutes gets [Untestable] or [Aborted] here, never a [Test]. *)

val gate_table : Gate.kind -> Logic.Five.five array -> Logic.Five.five option
(** [gate_table kind vs] is the table entry {!generate} reads for a
    [kind] gate with fanin values [vs], or [None] when no table covers
    that kind and arity (sources, more than four inputs, an arity the
    kind does not allow); such a gate is folded pin by pin. *)
