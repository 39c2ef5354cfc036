module Json = Json
module Histogram = Histogram
module Events = Events
module Trace_export = Trace_export

(* ------------------------------------------------------------------ *)
(* global switch, level, trace sink                                    *)
(* ------------------------------------------------------------------ *)

let on = ref false

let enable () =
  on := true;
  Histogram.set_enabled true

let disable () =
  on := false;
  Histogram.set_enabled false

let enabled () = !on

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Ok Debug
  | "info" -> Ok Info
  | "warn" | "warning" -> Ok Warn
  | "error" -> Ok Error
  | other ->
    Error
      (Printf.sprintf "unknown log level %S (expected debug|info|warn|error)"
         other)

let threshold = ref Info
let set_level l = threshold := l
let level () = !threshold

let trace_chan : out_channel option ref = ref None

let close_trace () =
  match !trace_chan with
  | None -> ()
  | Some oc ->
    close_out oc;
    trace_chan := None

let set_trace_file path =
  close_trace ();
  trace_chan := Some (open_out path)

let now () = Unix.gettimeofday ()

(* One JSON object per line; every record carries its wall-clock
   timestamp and record type. *)
let trace_event typ fields =
  match !trace_chan with
  | None -> ()
  | Some oc ->
    let record =
      Json.Obj (("ts", Json.Float (now ())) :: ("type", Json.String typ) :: fields)
    in
    output_string oc (Json.to_string record);
    output_char oc '\n';
    flush oc

(* ------------------------------------------------------------------ *)
(* structured logging                                                  *)
(* ------------------------------------------------------------------ *)

module Log = struct
  let field_to_text (k, v) =
    let s =
      match v with
      | Json.String s -> s
      | other -> Json.to_string other
    in
    Printf.sprintf " %s=%s" k s

  let log lvl ?(fields = []) msg =
    if !on && severity lvl >= severity !threshold then begin
      Printf.eprintf "[%-5s] %s%s\n%!" (level_to_string lvl) msg
        (String.concat "" (List.map field_to_text fields));
      trace_event "log"
        [
          ("level", Json.String (level_to_string lvl));
          ("msg", Json.String msg);
          ("fields", Json.Obj fields);
        ]
    end

  let debug ?fields msg = log Debug ?fields msg
  let info ?fields msg = log Info ?fields msg
  let warn ?fields msg = log Warn ?fields msg
  let error ?fields msg = log Error ?fields msg
end

(* ------------------------------------------------------------------ *)
(* spans                                                               *)
(* ------------------------------------------------------------------ *)

module Span = struct
  (* The GC fields hold [Gc.quick_stat] values at entry while the span
     is open and are rewritten to deltas when it closes (except
     [top_heap_words], which stays the absolute peak — a process-wide
     high-water mark has no meaningful per-span delta). *)
  type t = {
    name : string;
    fields : (string * Json.t) list;
    start : float;
    mutable stop : float;
    mutable children_rev : t list;
    mutable minor_words : float;
    mutable promoted_words : float;
    mutable major_words : float;
    mutable minor_collections : int;
    mutable major_collections : int;
    mutable top_heap_words : int;
  }

  (* innermost open span first *)
  let stack : t list ref = ref []
  let roots_rev : t list ref = ref []

  let clear () =
    stack := [];
    roots_rev := []

  let duration_s s = s.stop -. s.start
  let children s = List.rev s.children_rev
  let roots () = List.rev !roots_rev

  let finish sp =
    let t = now () in
    let st = Gc.quick_stat () in
    let close s =
      if Float.is_nan s.stop then begin
        s.stop <- t;
        s.minor_words <- st.Gc.minor_words -. s.minor_words;
        s.promoted_words <- st.Gc.promoted_words -. s.promoted_words;
        s.major_words <- st.Gc.major_words -. s.major_words;
        s.minor_collections <- st.Gc.minor_collections - s.minor_collections;
        s.major_collections <- st.Gc.major_collections - s.major_collections;
        s.top_heap_words <- st.Gc.top_heap_words
      end
    in
    close sp;
    (* pop up to and including [sp]; anything above it was left open by
       an exception path that bypassed its own [finish] ([with_] cannot
       leak — its Fun.protect always closes — but a direct user of the
       span API can). Close strays here too so every span_start in the
       trace gets its span_end and the tree stays well-formed. *)
    let rec pop = function
      | [] -> []
      | s :: rest ->
        if s == sp then rest
        else begin
          close s;
          sp.children_rev <- s :: sp.children_rev;
          trace_event "span_end"
            [
              ("name", Json.String s.name);
              ("duration_s", Json.Float (duration_s s));
              ("abandoned", Json.Bool true);
            ];
          pop rest
        end
    in
    stack := pop !stack;
    (match !stack with
    | parent :: _ -> parent.children_rev <- sp :: parent.children_rev
    | [] -> roots_rev := sp :: !roots_rev);
    trace_event "span_end"
      [
        ("name", Json.String sp.name);
        ("duration_s", Json.Float (duration_s sp));
        ("depth", Json.Int (List.length !stack));
      ]

  let with_ ?(fields = []) ~name fn =
    if not !on then fn ()
    else begin
      let st = Gc.quick_stat () in
      let sp =
        {
          name;
          fields;
          start = now ();
          stop = nan;
          children_rev = [];
          minor_words = st.Gc.minor_words;
          promoted_words = st.Gc.promoted_words;
          major_words = st.Gc.major_words;
          minor_collections = st.Gc.minor_collections;
          major_collections = st.Gc.major_collections;
          top_heap_words = st.Gc.top_heap_words;
        }
      in
      trace_event "span_start"
        [ ("name", Json.String name); ("depth", Json.Int (List.length !stack)) ];
      stack := sp :: !stack;
      Fun.protect ~finally:(fun () -> finish sp) fn
    end

  let find name =
    let rec search s = if s.name = name then Some s else first (children s)
    and first = function
      | [] -> None
      | s :: rest -> (match search s with Some _ as hit -> hit | None -> first rest)
    in
    first (roots ())

  let gc_to_json s =
    Json.Obj
      [
        ("minor_words", Json.Float s.minor_words);
        ("promoted_words", Json.Float s.promoted_words);
        ("major_words", Json.Float s.major_words);
        ("minor_collections", Json.Int s.minor_collections);
        ("major_collections", Json.Int s.major_collections);
        ("top_heap_words", Json.Int s.top_heap_words);
      ]

  let rec to_json s =
    Json.Obj
      ([
         ("name", Json.String s.name);
         ("start_s", Json.Float s.start);
         ("duration_s", Json.Float (duration_s s));
         ("gc", gc_to_json s);
       ]
      @ (if s.fields = [] then [] else [ ("fields", Json.Obj s.fields) ])
      @
      match children s with
      | [] -> []
      | kids -> [ ("children", Json.List (List.map to_json kids)) ])

  let pp_tree fmt root =
    let total = Float.max 1e-12 (duration_s root) in
    let rec pp prefix is_last s =
      let connector =
        if prefix = "" then "" else if is_last then "`- " else "|- "
      in
      Format.fprintf fmt "%s%s%-*s %9.2f ms %6.1f%%@." prefix connector
        (max 1 (32 - String.length prefix - String.length connector))
        s.name
        (duration_s s *. 1e3)
        (100.0 *. duration_s s /. total);
      let kids = children s in
      let n = List.length kids in
      List.iteri
        (fun i kid ->
          let child_prefix =
            if prefix = "" then "  "
            else prefix ^ (if is_last then "   " else "|  ")
          in
          pp child_prefix (i = n - 1) kid)
        kids
    in
    pp "" true root

  (* Flat per-stage table: spans aggregated by name over the whole
     tree (inclusive times, like the tree view), sorted by time
     descending with the name as deterministic tie-break. The column
     order is part of the CLI contract — a golden test pins it. *)
  let profile_header =
    Printf.sprintf "%-32s %12s %6s %12s %12s %8s %8s" "stage" "ms" "%"
      "minor-mw" "major-mw" "gc-min" "gc-maj"

  let pp_profile ?(top = max_int) fmt root =
    let tbl : (string, float * float * float * int * int) Hashtbl.t =
      Hashtbl.create 32
    in
    let rec add s =
      let d, mw, jw, mc, jc =
        match Hashtbl.find_opt tbl s.name with
        | Some acc -> acc
        | None -> (0.0, 0.0, 0.0, 0, 0)
      in
      Hashtbl.replace tbl s.name
        ( d +. duration_s s,
          mw +. s.minor_words,
          jw +. s.major_words,
          mc + s.minor_collections,
          jc + s.major_collections );
      List.iter add (children s)
    in
    add root;
    let rows = Hashtbl.fold (fun name acc l -> (name, acc) :: l) tbl [] in
    let rows =
      List.sort
        (fun (na, (da, _, _, _, _)) (nb, (db, _, _, _, _)) ->
          match compare db da with 0 -> String.compare na nb | c -> c)
        rows
    in
    let total = Float.max 1e-12 (duration_s root) in
    Format.fprintf fmt "%s@." profile_header;
    List.iteri
      (fun i (name, (d, mw, jw, mc, jc)) ->
        if i < top then
          Format.fprintf fmt "%-32s %12.2f %6.1f %12.3f %12.3f %8d %8d@." name
            (d *. 1e3)
            (100.0 *. d /. total)
            (mw /. 1e6) (jw /. 1e6) mc jc)
      rows
end

(* ------------------------------------------------------------------ *)
(* counters and gauges                                                 *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = { name : string; mutable value : int }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 64

  let make name =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
      let c = { name; value = 0 } in
      Hashtbl.add registry name c;
      c

  let inc c = if !on then c.value <- c.value + 1
  let add c n = if !on then c.value <- c.value + n
  let get c = c.value
  let find name = Option.map get (Hashtbl.find_opt registry name)
  let reset_all () = Hashtbl.iter (fun _ c -> c.value <- 0) registry

  let all () =
    Hashtbl.fold (fun name c acc -> (name, c.value) :: acc) registry []
    |> List.sort compare
end

module Gauge = struct
  type t = { name : string; mutable value : float; mutable set_ : bool }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16

  let make name =
    match Hashtbl.find_opt registry name with
    | Some g -> g
    | None ->
      let g = { name; value = 0.0; set_ = false } in
      Hashtbl.add registry name g;
      g

  let set g v =
    if !on then begin
      g.value <- v;
      g.set_ <- true
    end

  let observe_max g v =
    if !on && ((not g.set_) || v > g.value) then begin
      g.value <- v;
      g.set_ <- true
    end

  let get g = if g.set_ then Some g.value else None
  let find name = Option.bind (Hashtbl.find_opt registry name) get

  let reset_all () =
    Hashtbl.iter
      (fun _ g ->
        g.value <- 0.0;
        g.set_ <- false)
      registry

  let all () =
    Hashtbl.fold
      (fun name g acc -> if g.set_ then (name, g.value) :: acc else acc)
      registry []
    |> List.sort compare
end

let reset () =
  Counter.reset_all ();
  Gauge.reset_all ();
  Histogram.reset_all ();
  Span.clear ()

(* ------------------------------------------------------------------ *)
(* snapshot exporters                                                  *)
(* ------------------------------------------------------------------ *)

let metrics_snapshot () =
  Json.Obj
    [
      ("schema", Json.String "scanpower.telemetry/1");
      ("pid", Json.Int (Unix.getpid ()));
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Counter.all ())) );
      ( "gauges",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (Gauge.all ())) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun s -> (s.Histogram.s_name, Histogram.snapshot_to_json s))
             (Histogram.all ())) );
      ("spans", Json.List (List.map Span.to_json (Span.roots ())));
    ]

let write_metrics path =
  let oc = open_out path in
  output_string oc (Json.to_string (metrics_snapshot ()));
  output_char oc '\n';
  close_out oc

let chrome_trace () =
  let self = Printf.sprintf "scanpower (pid %d)" (Unix.getpid ()) in
  Trace_export.chrome_of_snapshots
    ((self, metrics_snapshot ()) :: Trace_export.registered ())

let write_chrome path =
  let oc = open_out path in
  output_string oc (Json.to_string (chrome_trace ()));
  output_char oc '\n';
  close_out oc
