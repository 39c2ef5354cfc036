(** Implication screen for single stuck-at faults: proves a fault
    redundant without a search when the facts every test must satisfy
    already contradict each other.

    Once per circuit, {!make} learns the constant lines: the gates
    whose good value is the same under every input vector, found by
    failed-literal probing on the good plane, with everything they
    imply. Every fault starts from these facts.

    The engine holds Larrabee's miter for one fault at a time, as
    three sets of values over the compiled circuit:
    - a three-valued good plane over every node;
    - a faulty plane over the fault's fanout cone (DFF fanouts
      excluded); a node outside the cone has its good value there.
      The cone stops at a pinned gate, one with a constant
      controlling value on a fanin outside the cone: its faulty value
      is its good value;
    - a sensitised-path flag on each cone node (set, cleared or open).

    It asserts the activation value, the stuck constant and the path
    flag at the fault site, then runs event-driven forward and
    backward implication to a fixpoint under these rules:
    - gate rules in both directions, on each plane;
    - a set path flag means good <> faulty at that node;
    - equal good and faulty values clear the flag;
    - a set flag on a node that is not observable needs a cone fanout
      whose flag is set (a pinned fanout is never one): the last open
      cone fanout gets it, and none left is a contradiction;
    - a node that is not observable and whose cone fanouts are all
      cleared is cleared itself.

    The fixpoint is unit propagation of the miter's CNF, with no
    decision. Every rule holds for any detecting vector (set the flags
    along one path of differing nodes from the site to the first
    observable), so a contradiction proves the fault untestable. The
    converse does not hold: a fault that survives the screen may still
    be redundant. The constant lines and the pinned cone change which
    faults survive, never a verdict's soundness: a learned value holds
    under every vector, and a node of the structural cone left out has
    equal good and faulty values under every vector. *)

type t
(** Per-circuit scratch; reusable across any number of faults, not
    thread-safe. *)

val make : Netlist.Compiled.t -> t
(** Allocates the planes and the event queue once, then learns the
    constant lines: a gate is probed only if it held one value on
    every lane of a few words of fixed-seed random patterns, and only
    for the value it never took. Each probe costs one implication on
    the good plane. Runs inside the span [atpg.learn_constants] and
    adds the number of constant gates to the counter
    [atpg.implication.constants]. *)

val constant : t -> int -> Netlist.Logic.t
(** [constant t id] is the value every input vector gives node [id],
    when {!make} learned one, and [X] otherwise. *)

val constants : t -> int
(** The number of nodes with a learned value (all of them gates). *)

val refutes : t -> Fault.t -> bool
(** [refutes t f] is true when implication alone contradicts the facts
    of a test for [f]: then no input vector detects [f]. It costs one
    sweep of the fault's fanout cone plus the events implication
    raises, and allocates nothing. *)
