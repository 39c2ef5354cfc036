(** Implication screen for single stuck-at faults: proves a fault
    redundant without a search when the facts every test must satisfy
    already contradict each other.

    The engine holds Larrabee's miter for one fault at a time, as
    three sets of values over the compiled circuit:
    - a three-valued good plane over every node;
    - a faulty plane over the fault's fanout cone (DFF fanouts
      excluded); a node outside the cone has its good value there;
    - a sensitised-path flag on each cone node (set, cleared or open).

    It asserts the activation value, the stuck constant and the path
    flag at the fault site, then runs event-driven forward and
    backward implication to a fixpoint under these rules:
    - gate rules in both directions, on each plane;
    - a set path flag means good <> faulty at that node;
    - equal good and faulty values clear the flag;
    - a set flag on a node that is not observable needs a cone fanout
      whose flag is set: the last open fanout gets it, and none left
      is a contradiction;
    - a node that is not observable and whose cone fanouts are all
      cleared is cleared itself.

    The fixpoint is unit propagation of the miter's CNF, with no
    decision. Every rule holds for any detecting vector (set the flags
    along one path of differing nodes from the site to the first
    observable), so a contradiction proves the fault untestable. The
    converse does not hold: a fault that survives the screen may still
    be redundant. *)

type t
(** Per-circuit scratch; reusable across any number of faults, not
    thread-safe. *)

val make : Netlist.Compiled.t -> t
(** Allocates the planes and the event queue once; O(nodes). *)

val refutes : t -> Fault.t -> bool
(** [refutes t f] is true when implication alone contradicts the facts
    of a test for [f]: then no input vector detects [f]. It costs one
    sweep of the fault's fanout cone plus the events implication
    raises, and allocates nothing. *)
