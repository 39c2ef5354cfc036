(** Test oracle: levelised three-valued (0/1/X) simulation of the
    combinational core on [Circuit.t], the reference for the library's
    incremental implication ([Scanpower.Justify], [Scanpower.Tns]) and
    the engine of {!Seq_sim}. Values are dense arrays indexed by node id;
    flip-flop nodes carry their present-state value and primary inputs
    their applied value. *)

open Netlist

type values = Logic.t array

val make_values : Circuit.t -> Logic.t -> values
(** Fresh value array filled with the given constant. *)

val propagate : Circuit.t -> values -> unit
(** Evaluate every non-source node in topological order, in place.
    Source (Input/Dff) entries are read, never written. *)

val eval :
  Circuit.t -> inputs:(int -> Logic.t) -> state:(int -> Logic.t) -> values
(** Build a value array from the given primary-input and flip-flop
    assignment functions (indexed by position within
    [Circuit.inputs]/[Circuit.dffs]) and propagate. *)

val eval_vector : Circuit.t -> Logic.t array -> Logic.t array -> values
(** [eval_vector c pi_values ff_values]: positional variant of {!eval}.
    @raise Invalid_argument on length mismatch. *)

val outputs_of : Circuit.t -> values -> Logic.t array
(** Primary-output values in [Circuit.outputs] order. *)

val next_state_of : Circuit.t -> values -> Logic.t array
(** Values captured by each flip-flop (its D fanin), in
    [Circuit.dffs] order. *)
