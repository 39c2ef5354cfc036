module Json = Telemetry.Json
module E = Scanpower_errors

let max_line_default = 4 * 1024 * 1024

let default_socket () =
  Filename.concat (Filename.get_temp_dir_name ()) "scanpower.sock"

type kind = Flow | Atpg | Validate | Sweep_point | Health | Stats

let kinds =
  [ Flow; Atpg; Validate; Sweep_point; Health; Stats ]

let kind_to_string = function
  | Flow -> "flow"
  | Atpg -> "atpg"
  | Validate -> "validate"
  | Sweep_point -> "sweep-point"
  | Health -> "health"
  | Stats -> "stats"

let kind_of_string s =
  List.find_opt (fun k -> kind_to_string k = s) kinds

type circuit_spec =
  | Named of string
  | Inline of { name : string; bench : string }

type isolation = Inline_isolation | Fork_isolation

type request = {
  id : string;
  kind : kind;
  circuit : circuit_spec option;
  seed : int;
  deadline_s : float option;
  stream : bool;
  isolation : isolation;
  idem : string option;
}

let needs_circuit = function
  | Flow | Atpg | Validate | Sweep_point -> true
  | Health | Stats -> false

(* ---- parsing ---- *)

let usage ?token msg = E.make ?token ~code:E.Usage ~stage:"server.protocol" msg

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let opt_string obj k =
  match Json.member k obj with
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (usage (Printf.sprintf "field %S must be a string" k))
  | None -> Ok None

let opt_int obj k =
  match Json.member k obj with
  | Some (Json.Int n) -> Ok (Some n)
  | Some _ -> Error (usage (Printf.sprintf "field %S must be an integer" k))
  | None -> Ok None

let opt_number obj k =
  match Json.member k obj with
  | Some (Json.Float f) -> Ok (Some f)
  | Some (Json.Int n) -> Ok (Some (float_of_int n))
  | Some _ -> Error (usage (Printf.sprintf "field %S must be a number" k))
  | None -> Ok None

let opt_bool obj k =
  match Json.member k obj with
  | Some (Json.Bool b) -> Ok (Some b)
  | Some _ -> Error (usage (Printf.sprintf "field %S must be a boolean" k))
  | None -> Ok None

(* [id] is extracted first and as leniently as possible so that even a
   structurally broken request gets its error echoed back under the
   right id — a client multiplexing requests must never mis-attribute
   a failure. *)
let request_id json =
  match Json.member "id" json with
  | Some (Json.String s) -> Some s
  | Some (Json.Int n) -> Some (string_of_int n)
  | _ -> None

let parse_request json =
  match json with
  | Json.Obj _ ->
    let* id =
      match request_id json with
      | Some id -> Ok id
      | None -> (
        match Json.member "id" json with
        | None -> Error (usage "missing field \"id\"")
        | Some _ -> Error (usage "field \"id\" must be a string"))
    in
    let* kind_s =
      match Json.member "kind" json with
      | Some (Json.String s) -> Ok s
      | Some _ -> Error (usage "field \"kind\" must be a string")
      | None -> Error (usage "missing field \"kind\"")
    in
    let* kind =
      match kind_of_string kind_s with
      | Some k -> Ok k
      | None ->
        Error
          (usage ~token:kind_s
             (Printf.sprintf "unknown request kind %S (expected one of %s)"
                kind_s
                (String.concat ", "
                   (List.map (fun k -> kind_to_string k) kinds))))
    in
    let* named = opt_string json "circuit" in
    let* bench = opt_string json "bench" in
    let* name = opt_string json "name" in
    let* circuit =
      match (bench, named) with
      | Some bench, _ ->
        let name = match name with Some n -> n | None -> "inline" in
        Ok (Some (Inline { name; bench }))
      | None, Some n -> Ok (Some (Named n))
      | None, None ->
        if needs_circuit kind then
          Error
            (usage
               (Printf.sprintf
                  "%S needs a circuit: pass \"circuit\" (a benchmark name) \
                   or \"bench\" (inline netlist text)"
                  kind_s))
        else Ok None
    in
    let* seed = opt_int json "seed" in
    let seed = match seed with Some s -> s | None -> 42 in
    let* deadline_s = opt_number json "deadline_s" in
    let* () =
      match deadline_s with
      | Some d when d <= 0.0 -> Error (usage "\"deadline_s\" must be positive")
      | _ -> Ok ()
    in
    let* stream = opt_bool json "stream" in
    let stream = match stream with Some b -> b | None -> false in
    let* isolation_s = opt_string json "isolation" in
    let* isolation =
      match isolation_s with
      | None | Some "inline" -> Ok Inline_isolation
      | Some "fork" -> Ok Fork_isolation
      | Some i ->
        Error
          (usage ~token:i "field \"isolation\" must be \"inline\" or \"fork\"")
    in
    let* idem = opt_string json "idem" in
    let* () =
      match idem with
      | Some "" -> Error (usage "field \"idem\" must be non-empty")
      | _ -> Ok ()
    in
    Ok { id; kind; circuit; seed; deadline_s; stream; isolation; idem }
  | _ -> Error (usage "request must be a JSON object")

(* ---- response lines ---- *)

(* an id is echoed whenever one could be recovered; [Json.Null]
   otherwise, so clients can still see the error *)
let id_field = function
  | Some id -> ("id", Json.String id)
  | None -> ("id", Json.Null)

let result_line ~id ~kind value =
  Json.Obj
    [
      ("id", Json.String id);
      ("type", Json.String "result");
      ("kind", Json.String (kind_to_string kind));
      ("value", value);
    ]

let error_line ?id err =
  Json.Obj
    [ id_field id; ("type", Json.String "error"); ("error", E.to_json err) ]

let event_line ~id event_json =
  Json.Obj
    [ ("id", Json.String id); ("type", Json.String "event");
      ("event", event_json) ]

(* ---- request serialization (the client side) ---- *)

let request_to_json r =
  let opt k v rest = match v with Some x -> (k, x) :: rest | None -> rest in
  let circuit_fields rest =
    match r.circuit with
    | None -> rest
    | Some (Named n) -> ("circuit", Json.String n) :: rest
    | Some (Inline { name; bench }) ->
      ("name", Json.String name) :: ("bench", Json.String bench) :: rest
  in
  Json.Obj
    (("id", Json.String r.id)
    :: ("kind", Json.String (kind_to_string r.kind))
    :: circuit_fields
         (("seed", Json.Int r.seed)
         :: opt "deadline_s"
              (Option.map (fun d -> Json.Float d) r.deadline_s)
              (("stream", Json.Bool r.stream)
              ::
              (match r.isolation with
              | Inline_isolation -> []
              | Fork_isolation -> [ ("isolation", Json.String "fork") ])
              @ opt "idem" (Option.map (fun i -> Json.String i) r.idem) [])))

let make ?circuit ?bench ?(name = "inline") ?(seed = 42) ?deadline_s
    ?(stream = false) ?(isolation = Inline_isolation) ?idem ~id kind =
  let circuit =
    match (bench, circuit) with
    | Some bench, _ -> Some (Inline { name; bench })
    | None, Some c -> Some (Named c)
    | None, None -> None
  in
  { id; kind; circuit; seed; deadline_s; stream; isolation; idem }

(* ---- raw-line entry point (the fuzzer's surface) ---- *)

(* Must never raise, whatever the bytes: the daemon calls this on
   every frame an untrusted client sends. *)
let request_of_line line =
  match Json.of_string line with
  | Error msg ->
    Error
      (E.make ~code:E.Parse ~stage:"server.protocol"
         (Printf.sprintf "request is not valid JSON: %s" msg))
  | Ok json -> parse_request json
