(** Wire protocol for the scan-power daemon: line-delimited JSON over
    a Unix-domain socket.

    Every request is one JSON object on one line; every reply is one
    or more lines, each an object tagged with the request's [id] and a
    ["type"] of ["result"], ["error"] or ["event"]. Errors embed
    {!Scanpower_errors.to_json} verbatim under ["error"], so a client
    can re-materialize the structured error with
    {!Scanpower_errors.of_json} and map it to the documented exit
    codes. See DESIGN.md §11 for the full schema. *)

val max_line_default : int
(** Default cap on one request line (4 MiB — comfortably above the
    largest ISCAS89 netlist inlined as ["bench"] text). *)

val default_socket : unit -> string
(** [$TMPDIR/scanpower.sock]. *)

type kind = Flow | Atpg | Validate | Sweep_point | Health | Stats

val kind_to_string : kind -> string
(** ["flow"], ["atpg"], ["validate"], ["sweep-point"], ["health"],
    ["stats"]. *)

val kind_of_string : string -> kind option

type circuit_spec =
  | Named of string  (** a built-in benchmark name, resolved server-side *)
  | Inline of { name : string; bench : string }
      (** netlist text shipped in the request — the multi-tenant path *)

type isolation =
  | Inline_isolation
      (** run in the daemon process: fastest, warms the shared registry *)
  | Fork_isolation
      (** run in a forked worker via {!Runner}: crash isolation and an
          enforced compute timeout, at fork cost; the worker inherits
          the warm registry copy-on-write but cannot warm it *)

type request = {
  id : string;  (** echoed on every response line *)
  kind : kind;
  circuit : circuit_spec option;  (** required by all but health/stats *)
  seed : int;  (** evaluation seed (flow/sweep-point) or ATPG seed (atpg) *)
  deadline_s : float option;
      (** budget from admission; expiry yields code [deadline] *)
  stream : bool;  (** forward telemetry-bus events as ["event"] lines *)
  isolation : isolation;
  idem : string option;
      (** idempotency key: the dispatcher caches the Ok response under
          this key, so a client replaying after a torn connection gets
          the stored result instead of a second execution *)
}

val needs_circuit : kind -> bool

val request_id : Telemetry.Json.t -> string option
(** Best-effort id extraction from an arbitrary value, so even a
    structurally broken request gets its error echoed under the right
    id. *)

val parse_request :
  Telemetry.Json.t -> (request, Scanpower_errors.t) result
(** Strict field validation; every failure is code [Usage] with stage
    ["server.protocol"]. *)

val request_of_line : string -> (request, Scanpower_errors.t) result
(** Parse one raw frame: JSON decode ([Parse] on failure) then
    {!parse_request}. Total — never raises, whatever the bytes; this
    is the surface the protocol fuzzer hammers. *)

val result_line : id:string -> kind:kind -> Telemetry.Json.t -> Telemetry.Json.t
val error_line : ?id:string -> Scanpower_errors.t -> Telemetry.Json.t
(** [id] omitted (rendered as JSON [null]) when none could be
    recovered from the request. *)

val event_line : id:string -> Telemetry.Json.t -> Telemetry.Json.t

val request_to_json : request -> Telemetry.Json.t
(** Wire form; [parse_request (request_to_json r) = Ok r]. *)

val make :
  ?circuit:string ->
  ?bench:string ->
  ?name:string ->
  ?seed:int ->
  ?deadline_s:float ->
  ?stream:bool ->
  ?isolation:isolation ->
  ?idem:string ->
  id:string ->
  kind ->
  request
(** Client-side constructor. [bench] (inline text) wins over [circuit]
    (a name); [name] labels inline text (default ["inline"]). *)
