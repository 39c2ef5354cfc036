module Json = Telemetry.Json
module Errors = Scanpower_errors

(* /4 dropped the PPSFP and domain-sharded fault-sim metrics and the
   [domains] field that /3 carried, and added nothing, so a /3
   baseline pairs metric-for-metric with a /4 file. A /3 baseline that
   still carries the dropped metrics reports them missing: refresh it. *)
let accepted_schemas =
  [ "scanpower.bench_kernels/3"; "scanpower.bench_kernels/4" ]

type value = I of int | F of float

type file = {
  fast : bool;
  circuits : (string * (string * value) list) list;
}

let value_to_float = function I i -> float_of_int i | F f -> f

let value_to_string = function
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%.6g" f

(* ------------------------------------------------------------------ *)
(* loading                                                             *)
(* ------------------------------------------------------------------ *)

let fail path msg =
  Errors.raise_error ~code:Errors.Parse ~stage:"bench-diff"
    (Printf.sprintf "%s: %s" path msg)

let metrics_of_json path obj =
  match obj with
  | Json.Obj fields ->
    List.filter_map
      (fun (k, v) ->
        match v with
        | Json.Int i -> Some (k, I i)
        | Json.Float f -> Some (k, F f)
        | Json.Null -> None (* a non-finite measurement: not comparable *)
        | _ -> fail path (Printf.sprintf "metric %S is not a number" k))
      fields
  | _ -> fail path "circuit entry is not an object"

let load path =
  let raw =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg ->
      Errors.raise_error ~code:Errors.Io ~stage:"bench-diff" msg
  in
  match Json.of_string (String.trim raw) with
  | Error msg -> fail path msg
  | Ok obj -> (
    (match Json.member "schema" obj with
    | Some (Json.String s) when List.mem s accepted_schemas -> ()
    | Some (Json.String s) ->
      fail path
        (Printf.sprintf "schema %S, expected one of %s" s
           (String.concat ", "
              (List.map (Printf.sprintf "%S") accepted_schemas)))
    | _ -> fail path "missing schema field");
    let fast =
      match Json.member "fast" obj with Some (Json.Bool b) -> b | _ -> false
    in
    match Json.member "circuits" obj with
    | Some (Json.Obj circuits) ->
      {
        fast;
        circuits =
          List.map (fun (name, m) -> (name, metrics_of_json path m)) circuits;
      }
    | _ -> fail path "missing circuits object")

(* ------------------------------------------------------------------ *)
(* comparison                                                          *)
(* ------------------------------------------------------------------ *)

type kind = Count | Time | Rate

(* Classified by naming convention, which the bench writer keeps
   deliberately strict: [_speedup] and [_events_s] are
   higher-is-better rates, any other [_s] suffix is a lower-is-better
   wall-clock time, and everything else is an exact count (a structural
   property of the circuit or the algorithm, where any drift means the
   two runs did not compute the same thing).

   Gate-bearing rates are additionally pinned by name: the serve
   stage's warm-up amortisation contract ([serve_warm_speedup]) rides
   the [_speedup] suffix today, but it is the one metric whose
   misclassification would silently un-gate a whole subsystem, so it
   must never depend on the naming convention alone (a test pins
   both). *)
let rate_metrics = [ "serve_warm_speedup" ]

let kind_of_metric name =
  if List.mem name rate_metrics then Rate
  else if
    String.ends_with ~suffix:"_speedup" name
    || String.ends_with ~suffix:"_events_s" name
  then Rate
  else if String.ends_with ~suffix:"_s" name then Time
  else Count

let kind_to_string = function
  | Count -> "count"
  | Time -> "time"
  | Rate -> "rate"

type finding = {
  f_circuit : string;
  f_metric : string;
  f_kind : kind;
  f_old : value;
  f_new : value;
  f_delta_pct : float option;  (** [None] when the baseline is zero *)
  f_regressed : bool;
}

type report = {
  findings : finding list;  (** every compared metric, regressed first *)
  compared : int;
  regressions : finding list;
  fast_mismatch : bool;
  only_old_circuits : string list;
  only_new_circuits : string list;
  only_old_metrics : (string * string) list;  (** (circuit, metric) *)
}

let delta_pct ov nv =
  if ov = 0.0 then None else Some (100.0 *. (nv -. ov) /. ov)

let compare_metric ~time_threshold ~rate_threshold circuit metric old_v new_v =
  let kind = kind_of_metric metric in
  let ov = value_to_float old_v and nv = value_to_float new_v in
  let regressed =
    match kind with
    | Count -> ov <> nv
    | Time ->
      (* a zero baseline admits no ratio; only flag it when the new
         value is decidedly nonzero *)
      if ov <= 0.0 then nv > 1e-9 else nv > ov *. (1.0 +. time_threshold)
    | Rate -> if ov <= 0.0 then false else nv < ov *. (1.0 -. rate_threshold)
  in
  {
    f_circuit = circuit;
    f_metric = metric;
    f_kind = kind;
    f_old = old_v;
    f_new = new_v;
    f_delta_pct = delta_pct ov nv;
    f_regressed = regressed;
  }

let diff ?(time_threshold = 0.5) ?(rate_threshold = 0.5) old_f new_f =
  let findings = ref [] in
  let only_old_metrics = ref [] in
  let only_new_circuits =
    List.filter
      (fun (name, _) -> not (List.mem_assoc name old_f.circuits))
      new_f.circuits
    |> List.map fst
  in
  let only_old_circuits = ref [] in
  List.iter
    (fun (name, old_metrics) ->
      match List.assoc_opt name new_f.circuits with
      | None -> only_old_circuits := name :: !only_old_circuits
      | Some new_metrics ->
        List.iter
          (fun (metric, old_v) ->
            match List.assoc_opt metric new_metrics with
            | None -> only_old_metrics := (name, metric) :: !only_old_metrics
            | Some new_v ->
              findings :=
                compare_metric ~time_threshold ~rate_threshold name metric
                  old_v new_v
                :: !findings)
          old_metrics)
    old_f.circuits;
  let findings =
    List.stable_sort
      (fun a b -> compare b.f_regressed a.f_regressed)
      (List.rev !findings)
  in
  let regressions = List.filter (fun f -> f.f_regressed) findings in
  {
    findings;
    compared = List.length findings;
    regressions;
    fast_mismatch = old_f.fast <> new_f.fast;
    only_old_circuits = List.rev !only_old_circuits;
    only_new_circuits;
    only_old_metrics = List.rev !only_old_metrics;
  }

(* A metric present in the baseline but absent from the new file is a
   coverage loss and counts against the gate; metrics or circuits that
   only exist in the new file are additions and pass (that is what
   lets a baseline predate newly added bench fields). *)
let has_regression r = r.regressions <> [] || r.only_old_metrics <> []

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_finding fmt f =
  let delta =
    match f.f_delta_pct with
    | Some d -> Printf.sprintf "%+.1f%%" d
    | None -> "n/a"
  in
  Format.fprintf fmt "%-12s %-10s %-26s %12s -> %-12s %8s  %s" f.f_circuit
    (kind_to_string f.f_kind) f.f_metric (value_to_string f.f_old)
    (value_to_string f.f_new) delta
    (if f.f_regressed then "REGRESSED" else "ok")

let pp_report fmt r =
  Format.fprintf fmt "%-12s %-10s %-26s %12s    %-12s %8s@." "circuit" "kind"
    "metric" "old" "new" "delta";
  List.iter (fun f -> Format.fprintf fmt "%a@." pp_finding f) r.findings;
  if r.fast_mismatch then
    Format.fprintf fmt
      "note: fast flags differ between the two files; timings were taken \
       under different rep counts@.";
  List.iter
    (Format.fprintf fmt "note: circuit %s only in baseline (not compared)@.")
    r.only_old_circuits;
  List.iter
    (Format.fprintf fmt "note: circuit %s only in new file (not compared)@.")
    r.only_new_circuits;
  List.iter
    (fun (c, m) ->
      Format.fprintf fmt "REGRESSED: %s.%s present in baseline, missing from \
                          new file@." c m)
    r.only_old_metrics;
  Format.fprintf fmt "%d metrics compared, %d regression(s)@." r.compared
    (List.length r.regressions + List.length r.only_old_metrics)

let report_to_json r =
  let finding_json f =
    Json.Obj
      ([
         ("circuit", Json.String f.f_circuit);
         ("metric", Json.String f.f_metric);
         ("kind", Json.String (kind_to_string f.f_kind));
         ("old", (match f.f_old with I i -> Json.Int i | F x -> Json.Float x));
         ("new", (match f.f_new with I i -> Json.Int i | F x -> Json.Float x));
         ("regressed", Json.Bool f.f_regressed);
       ]
      @
      match f.f_delta_pct with
      | Some d -> [ ("delta_pct", Json.Float d) ]
      | None -> [])
  in
  Json.Obj
    [
      ("schema", Json.String "scanpower.bench_diff/1");
      ("compared", Json.Int r.compared);
      ( "regressions",
        Json.Int (List.length r.regressions + List.length r.only_old_metrics)
      );
      ("fast_mismatch", Json.Bool r.fast_mismatch);
      ("findings", Json.List (List.map finding_json r.findings));
      ( "missing_metrics",
        Json.List
          (List.map
             (fun (c, m) -> Json.String (c ^ "." ^ m))
             r.only_old_metrics) );
    ]
