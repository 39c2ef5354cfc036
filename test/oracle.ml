(* Independent detection oracle for generated tests: the full-cone
   fault simulator, which shares no code with PODEM's five-valued
   search, so a bug in that search cannot also hide in the check. *)

let detects c =
  let machine = Atpg.Fault_simulation.make ~engine:Atpg.Fault_simulation.Cone c in
  fun fault vector ->
    let detected, _ =
      Atpg.Fault_simulation.split ~machine c ~faults:[ fault ] ~vectors:[ vector ]
    in
    detected <> []

(* The faults of [faults] that some vector of [vectors] detects, by the
   same full-cone simulator, 64 vectors per pass. *)
let detected_by c ~faults ~vectors =
  let machine = Atpg.Fault_simulation.make ~engine:Atpg.Fault_simulation.Cone c in
  fst (Atpg.Fault_simulation.split ~machine c ~faults ~vectors)

(* Every assignment of [n] sources, source [b] = bit [b] of the index. *)
let all_vectors n =
  List.init (1 lsl n) (fun i -> Array.init n (fun b -> i land (1 lsl b) <> 0))
