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
