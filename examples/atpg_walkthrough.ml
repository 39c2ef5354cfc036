(* ATPG substrate walkthrough: fault universe, PODEM on a single
   fault, fault simulation and compaction — the machinery that stands
   in for the paper's ATOM test sets.

     dune exec examples/atpg_walkthrough.exe -- [circuit]
*)

open Netlist

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "s27" in
  let circuit = Techmap.Mapper.map (Circuits.by_name name) in
  let all = Atpg.Fault.all_faults circuit in
  let collapsed = Atpg.Fault.collapsed_faults circuit in
  Format.printf "== %s: %d faults, %d after equivalence collapsing@." name
    (List.length all) (List.length collapsed);

  (* run PODEM on the first few faults and show the cubes *)
  Format.printf "@.PODEM cubes (x = don't care, sources = PIs then scan cells):@.";
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let podem = Atpg.Podem.make circuit in
  List.iter
    (fun fault ->
      let cube =
        match Atpg.Podem.generate podem fault with
        | Atpg.Podem.Test cube ->
          String.init (Array.length cube) (fun i -> Logic.to_char cube.(i))
        | Atpg.Podem.Untestable -> "(untestable)"
        | Atpg.Podem.Aborted -> "(aborted)"
      in
      Format.printf "  %-16s %s@." (Atpg.Fault.to_string circuit fault) cube)
    (take 8 collapsed);

  (* full generation flow *)
  let outcome = Atpg.Pattern_gen.generate circuit in
  Format.printf "@.full flow: %a@." Atpg.Pattern_gen.pp_outcome outcome;

  (* show what compaction is worth: reverse-order compaction keeps
     only the random vectors that detect a fault no later-kept vector
     detects, and the kept subset detects the same faults *)
  let random = Atpg.Pattern_gen.random_vectors ~seed:1 ~count:300 circuit in
  let kept =
    Atpg.Fault_simulation.effective_subset circuit ~faults:collapsed
      ~vectors:random
  in
  let coverage vectors =
    100.0
    *. Atpg.Fault_simulation.coverage circuit ~faults:collapsed ~vectors
  in
  Format.printf
    "compaction: %d random vectors (%.2f%% coverage) -> %d kept (%.2f%%)@."
    (List.length random) (coverage random) (List.length kept) (coverage kept);

  (* verify the announced detections with the independent fault
     simulator: the returned vectors detect exactly [detected] faults *)
  let found, _ =
    Atpg.Fault_simulation.split circuit ~faults:collapsed
      ~vectors:outcome.Atpg.Pattern_gen.vectors
  in
  Format.printf "independent fault simulation: %d detected (announced %d)@."
    (List.length found) outcome.Atpg.Pattern_gen.detected
