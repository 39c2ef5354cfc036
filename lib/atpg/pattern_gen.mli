(** Complete test-generation flow (the stand-in for the ATOM test sets
    the paper uses [18]): random phase with fault dropping, PODEM for
    the remaining faults, cube merging and reverse-order compaction.

    Vectors are fully-specified source assignments (positional over
    [Circuit.sources]); the scan machinery later splits them into the
    primary-input part and the state part to be shifted in. *)

open Netlist

type config = {
  seed : int;
  random_batches : int;  (** max 64-vector random batches *)
  stale_batches : int;  (** stop the random phase after this many
                            consecutive batches without new detections *)
  backtrack_limit : int;
  podem_budget : int;
      (** max deterministic PODEM attempts; bounds the runtime on large
          circuits with many redundant faults (remaining faults are
          reported as [skipped]) *)
  scoap_guide : bool;
      (** drive PODEM backtrace with SCOAP controllabilities *)
  merge : bool;  (** merge deterministic cubes before filling *)
  reverse_compact : bool;
}

val default_config : config

type outcome = {
  vectors : bool array list;
  total_faults : int;
  detected : int;
  untestable : int;
      (** proven redundant, by PODEM's implication screen or its search *)
  aborted : int;
      (** neither tested nor proven untestable within PODEM's limits,
          or tested by a cube whose filled vector missed the fault *)
  skipped : int;  (** faults never attempted (budget exhausted) *)
  coverage : float;  (** detected / (total - untestable) *)
}

val generate : ?config:config -> Circuit.t -> outcome

val random_vectors : seed:int -> count:int -> Circuit.t -> bool array list

val pp_outcome : Format.formatter -> outcome -> unit
