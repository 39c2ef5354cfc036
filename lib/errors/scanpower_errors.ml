type code =
  | Usage
  | Parse
  | Validation
  | Io
  | Runtime
  | Partial
  | Overloaded
  | Deadline
  | Degraded

let code_to_string = function
  | Usage -> "usage"
  | Parse -> "parse"
  | Validation -> "validation"
  | Io -> "io"
  | Runtime -> "runtime"
  | Partial -> "partial"
  | Overloaded -> "overloaded"
  | Deadline -> "deadline"
  | Degraded -> "degraded"

let all_codes =
  [ Usage; Parse; Validation; Io; Runtime; Partial; Overloaded; Deadline;
    Degraded ]

let code_of_string s =
  List.find_opt (fun c -> code_to_string c = s) all_codes

(* Keep these in sync with the README troubleshooting table: 2 = bad
   invocation, 3 = bad input, 4 = the flow itself failed, 5 = a batch
   finished with failures, 7 = the daemon refused the request under
   load, 8 = a per-request deadline expired, 9 = the daemon is shedding
   load under memory pressure (retryable). 6 is retired: it meant a
   benchmark regression, and no command reports one any more. Cmdliner
   owns 124 for flag-syntax errors. *)
let exit_code = function
  | Usage -> 2
  | Parse | Validation -> 3
  | Io | Runtime -> 4
  | Partial -> 5
  | Overloaded -> 7
  | Deadline -> 8
  | Degraded -> 9

type location = { file : string option; line : int; column : int }

type t = {
  code : code;
  stage : string;
  circuit : string option;
  loc : location option;
  token : string option;
  message : string;
}

exception Error of t

let make ?circuit ?loc ?token ~code ~stage message =
  { code; stage; circuit; loc; token; message }

let raise_error ?circuit ?loc ?token ~code ~stage message =
  raise (Error (make ?circuit ?loc ?token ~code ~stage message))

let errorf ?circuit ?loc ?token ~code ~stage fmt =
  Printf.ksprintf (raise_error ?circuit ?loc ?token ~code ~stage) fmt

let to_string e =
  let b = Buffer.create 128 in
  Buffer.add_string b (code_to_string e.code);
  Buffer.add_string b " error in ";
  Buffer.add_string b e.stage;
  (match e.circuit with
  | Some c ->
    Buffer.add_string b " [";
    Buffer.add_string b c;
    Buffer.add_char b ']'
  | None -> ());
  (match e.loc with
  | Some l ->
    Buffer.add_string b " at ";
    (match l.file with
    | Some f ->
      Buffer.add_string b f;
      Buffer.add_char b ':'
    | None -> ());
    Buffer.add_string b (string_of_int l.line);
    if l.column > 0 then begin
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int l.column)
    end
  | None -> ());
  (match e.token with
  | Some t -> Buffer.add_string b (Printf.sprintf " near %S" t)
  | None -> ());
  Buffer.add_string b ": ";
  Buffer.add_string b e.message;
  Buffer.contents b

let to_json e =
  let module Json = Telemetry.Json in
  let opt k v rest =
    match v with Some s -> (k, Json.String s) :: rest | None -> rest
  in
  let loc_fields rest =
    match e.loc with
    | None -> rest
    | Some l ->
      opt "file" l.file
        (("line", Json.Int l.line) :: ("column", Json.Int l.column) :: rest)
  in
  Json.Obj
    (("code", Json.String (code_to_string e.code))
    :: ("stage", Json.String e.stage)
    :: opt "circuit" e.circuit
         (loc_fields (opt "token" e.token [ ("message", Json.String e.message) ])))

(* The exact inverse of [to_json]. Strictness is deliberate: a daemon
   client re-materializing an error must never silently downgrade a
   code it does not know into [Runtime], because exit-code mapping and
   retry policy hang off the code. *)
let of_json json =
  let module Json = Telemetry.Json in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let str_field obj k =
    match Json.member k obj with
    | Some (Json.String s) -> Ok s
    | Some _ -> Error (Printf.sprintf "field %S is not a string" k)
    | None -> Error (Printf.sprintf "missing field %S" k)
  in
  let opt_str obj k =
    match Json.member k obj with
    | Some (Json.String s) -> Ok (Some s)
    | Some _ -> Error (Printf.sprintf "field %S is not a string" k)
    | None -> Ok None
  in
  let opt_int obj k =
    match Json.member k obj with
    | Some (Json.Int n) -> Ok (Some n)
    | Some _ -> Error (Printf.sprintf "field %S is not an integer" k)
    | None -> Ok None
  in
  match json with
  | Json.Obj _ as obj ->
    let* code_s = str_field obj "code" in
    let* code =
      match code_of_string code_s with
      | Some c -> Ok c
      | None -> Error (Printf.sprintf "unknown error code %S" code_s)
    in
    let* stage = str_field obj "stage" in
    let* message = str_field obj "message" in
    let* circuit = opt_str obj "circuit" in
    let* token = opt_str obj "token" in
    let* file = opt_str obj "file" in
    let* line = opt_int obj "line" in
    let* column = opt_int obj "column" in
    let* loc =
      match (line, column, file) with
      | None, None, None -> Ok None
      | Some line, Some column, file -> Ok (Some { file; line; column })
      | _ -> Error "location needs both \"line\" and \"column\""
    in
    Ok { code; stage; circuit; loc; token; message }
  | _ -> Error "error payload is not a JSON object"

let of_exn ~stage ?circuit exn =
  match exn with
  | Error e ->
    (match (e.circuit, circuit) with
    | None, Some _ -> { e with circuit }
    | _ -> e)
  | Sys_error msg -> make ?circuit ~code:Io ~stage msg
  | Failure msg -> make ?circuit ~code:Runtime ~stage msg
  | Invalid_argument msg -> make ?circuit ~code:Runtime ~stage msg
  | e -> make ?circuit ~code:Runtime ~stage (Printexc.to_string e)
