(** Logic value domains used throughout the tool.

    Two domains are provided: the three-valued domain {0, 1, X} used by
    plain simulation and by the transition-blocking search, and the
    five-valued PODEM domain {0, 1, X, D, D'} used by the ATPG. *)

(** Three-valued logic: [Zero], [One], and the unknown / don't-care [X]. *)
type t =
  | Zero
  | One
  | X

val equal : t -> t -> bool

val to_char : t -> char
(** ['0'], ['1'] or ['x']. *)

val of_char : char -> t
(** Inverse of {!to_char}; accepts ['0'], ['1'], ['x'], ['X'].
    @raise Invalid_argument on any other character. *)

val of_bool : bool -> t

val to_bool : t -> bool option
(** [None] when the value is [X]. *)

val lnot : t -> t
(** Three-valued negation; [X] stays [X]. *)

val ( &&& ) : t -> t -> t
(** Three-valued conjunction: [Zero] dominates, [X &&& One = X]. *)

val ( ||| ) : t -> t -> t
(** Three-valued disjunction: [One] dominates, [X ||| Zero = X]. *)

val xor : t -> t -> t
(** Three-valued exclusive or; any [X] operand yields [X]. *)

val pp : Format.formatter -> t -> unit

(** Five-valued D-algebra for path-oriented test generation.

    [D] stands for 1 in the good circuit / 0 in the faulty circuit and
    [Dbar] for the opposite, following Roth's notation. *)
module Five : sig
  type five =
    | F0
    | F1
    | FX
    | D
    | Dbar

  val equal : five -> five -> bool

  val good : five -> t
  (** Value in the fault-free circuit. *)

  val faulty : five -> t
  (** Value in the faulty circuit. *)

  val lnot : five -> five

  val land_ : five -> five -> five

  val lor_ : five -> five -> five

  val lxor_ : five -> five -> five

  val make : good:t -> faulty:t -> five
  (** Compose a five-valued literal from its good/faulty pair. *)

  val to_string : five -> string

  val pp : Format.formatter -> five -> unit
end
