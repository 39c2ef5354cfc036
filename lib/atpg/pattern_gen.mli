(** Complete test-generation flow (the stand-in for the ATOM test sets
    the paper uses [18]): random phase with fault dropping, SCOAP-guided
    PODEM for the remaining faults, cube merging and reverse-order
    compaction.

    The policy is fixed: at most 32 random batches of 64 vectors,
    stopping after 5 in a row that detect nothing new; at most 4000
    PODEM attempts, whose cubes are merged 64 at a time before random
    filling; the whole set is then reverse-order compacted. A fault
    PODEM aborts, or whose filled cube missed it, meets no later vector
    during generation, so the compacted set is simulated against those
    faults once more and every one it detects counts as detected. The 64s are
    the test-set policy, not the fault simulator's 63-lane word: the
    detected and kept sets do not depend on how vectors fall into
    words, so the test set is the same at any word width.

    Vectors are fully-specified source assignments (positional over
    [Circuit.sources]); the scan machinery later splits them into the
    primary-input part and the state part to be shifted in. *)

open Netlist

type config = {
  seed : int;  (** random vectors and cube filling *)
  backtrack_limit : int;  (** per PODEM attempt *)
}

val default_config : config
(** Seed 1, backtrack limit 25. *)

type outcome = {
  vectors : bool array list;
  total_faults : int;
  detected : int;
  untestable : int;
      (** proven redundant, by PODEM's implication screen or its search *)
  aborted : int;
      (** neither tested nor proven untestable within PODEM's limits,
          or tested by a cube whose filled vector missed the fault, and
          not detected by the final vectors either *)
  skipped : int;  (** faults never attempted (budget exhausted) *)
  coverage : float;  (** detected / (total - untestable) *)
}

val generate : ?config:config -> Circuit.t -> outcome

val random_vectors : seed:int -> count:int -> Circuit.t -> bool array list

val pp_outcome : Format.formatter -> outcome -> unit
