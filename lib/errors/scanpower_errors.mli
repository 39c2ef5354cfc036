(** Structured errors for the whole scan-power flow.

    Every user-facing failure — a malformed [.bench] file, an invalid
    netlist, an unmappable gate, a failed sweep — is raised as the
    single exception {!Error} carrying one {!t}: an error {!code} (the
    class that decides the process exit code), the pipeline stage that
    detected it, the circuit involved when known, an optional source
    location and offending token, and a human message. Internal
    invariant violations keep raising [Invalid_argument]/[Failure];
    those indicate bugs, not bad input, and are wrapped at the CLI
    boundary via {!of_exn}. *)

type code =
  | Usage  (** bad command line: unknown circuit name, bad flag value *)
  | Parse  (** input text could not be read as a netlist at all *)
  | Validation  (** input parsed but the netlist is ill-formed *)
  | Io  (** file system / OS error around an input or output *)
  | Runtime  (** the flow itself failed (ATPG, simulation, pool misuse) *)
  | Partial  (** the batch finished but some jobs failed or were cut short *)
  | Overloaded
      (** the serving daemon's admission queue was full and the request
          was refused; safe to retry after backing off *)
  | Deadline
      (** the request's deadline expired before it could be served *)
  | Degraded
      (** the serving daemon is shedding compute-heavy requests under
          memory pressure; safe to retry after backing off — cheap
          requests (health, stats, validate) keep being served *)

val code_to_string : code -> string
(** Lowercase tag: ["usage"], ["parse"], ... *)

val code_of_string : string -> code option
(** Inverse of {!code_to_string}; [None] for unknown tags. *)

val exit_code : code -> int
(** The documented process exit code for each class:
    [Usage] → 2, [Parse]/[Validation] → 3, [Io]/[Runtime] → 4,
    [Partial] → 5, [Overloaded] → 7, [Deadline] → 8, [Degraded] → 9.
    6 is retired and not reused. (0 is success; Cmdliner's own 124
    covers command-line syntax it rejects before we run.) *)

type location = {
  file : string option;  (** [None] for in-memory text *)
  line : int;  (** 1-based; 0 when unknown *)
  column : int;  (** 1-based; 0 when unknown *)
}

type t = {
  code : code;
  stage : string;  (** e.g. ["bench_parser"], ["flow.prepare"], ["sweep"] *)
  circuit : string option;
  loc : location option;
  token : string option;  (** the offending token, when one exists *)
  message : string;
}

exception Error of t

val make :
  ?circuit:string ->
  ?loc:location ->
  ?token:string ->
  code:code ->
  stage:string ->
  string ->
  t

val raise_error :
  ?circuit:string ->
  ?loc:location ->
  ?token:string ->
  code:code ->
  stage:string ->
  string ->
  'a
(** [make] then [raise (Error _)]. *)

val errorf :
  ?circuit:string ->
  ?loc:location ->
  ?token:string ->
  code:code ->
  stage:string ->
  ('a, unit, string, 'b) format4 ->
  'a
(** Printf-style {!raise_error}. *)

val to_string : t -> string
(** One line: class, stage, circuit, location, token, message. *)

val to_json : t -> Telemetry.Json.t
(** Object with ["code"], ["stage"], ["message"] and, when present,
    ["circuit"], ["file"], ["line"], ["column"], ["token"]. *)

val of_json : Telemetry.Json.t -> (t, string) result
(** Exact inverse of {!to_json}, so a daemon client can re-materialize
    the structured error instead of string-matching. Strict: unknown
    codes, missing required fields ([code], [stage], [message]) and
    wrongly-typed fields are an [Error], never a silent downgrade —
    exit-code mapping and retry policy hang off the code. *)

val of_exn : stage:string -> ?circuit:string -> exn -> t
(** Wrap a legacy exception: {!Error} passes through unchanged
    (augmented with [circuit] if it had none), [Sys_error] becomes
    [Io], everything else [Runtime]. *)
