(** Test oracle: cycle-based two-valued sequential simulation. Apply a
    primary-input vector, read outputs, clock the flip-flops. The tests
    use it for functional equivalence checks (techmap, bench
    round-trips, reordering) and as the reference for scan capture
    responses. *)

open Netlist

type t

val create : ?init_state:bool array -> Circuit.t -> t
(** Flip-flops start at [init_state] (default all-zero).
    @raise Invalid_argument on state length mismatch. *)

val state : t -> bool array
(** Present state in [Circuit.dffs] order (copy). *)

val set_state : t -> bool array -> unit

val step : t -> bool array -> bool array
(** [step t pi_vector] applies the vector, returns the primary-output
    values and clocks the captured next state into the flip-flops. *)

val outputs_only : t -> bool array -> bool array
(** Combinational evaluation of the outputs for a vector without
    clocking the state. *)

val run : t -> bool array list -> bool array list
(** [step] over a vector sequence, collecting output responses. *)
