(* perfbench: run one workload and print its metrics.

     perfbench --workload flow-cold|evaluate-scan|serve-mix --seed N
               --seconds S --trace 0|1

   The last line of standard output is one JSON object: correct,
   attempted, failed and metrics (end-to-end ones with --trace 0,
   per-layer ones with --trace 1). The lines before it give the same
   metrics as "name value unit". *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "flow-cold, evaluate-scan or serve-mix");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "how long to measure");
      ("--trace", Arg.Set_int trace, "1 for the traced run (per-layer metrics)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (* the in-process workloads sample the host's speed from a timer
     signal; serve-mix samples between requests *)
  let run, sampled =
    match !workload with
    | "flow-cold" -> (Perfbench.Workloads.flow_cold, true)
    | "evaluate-scan" -> (Perfbench.Workloads.evaluate_scan, true)
    | "serve-mix" -> (Perfbench.Serve.serve_mix, false)
    | w ->
      prerr_endline ("perfbench: unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  let trace = !trace = 1 in
  let host = Perfbench.Host.create () in
  let go () = run host ~seed:!seed ~seconds:!seconds ~trace in
  match
    let o = if sampled then Perfbench.Host.sampling host go else go () in
    (o, Perfbench.Metrics.result_json ~trace o)
  with
  | exception e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 1
  | o, json ->
    List.iter (fun (name, v) -> Printf.printf "%-28s %14.4f (wall clock)\n" name v) o.wall;
    (match Telemetry.Json.member "metrics" json with
    | Some (Telemetry.Json.Obj ms) ->
      List.iter
        (fun (name, m) ->
          match (Telemetry.Json.member "value" m, Telemetry.Json.member "unit" m) with
          | Some (Telemetry.Json.Float v), Some (Telemetry.Json.String u) ->
            Printf.printf "%-28s %14.4f %s\n" name v u
          | _ -> ())
        ms
    | _ -> ());
    print_endline (Telemetry.Json.to_string json)
