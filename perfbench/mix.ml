(* The serve-mix traffic: a seeded request sequence and the tenant
   netlists it ships inline. Everything the daemon receives derives
   from the seed here; the daemon sees only the generated requests.

   The seed changes which requests come in which order, the evaluation
   seeds and the tenant netlists, but not how much of each kind a run
   sends: kinds are dealt from shuffled decks with exact shares, and
   each kind cycles through shuffled lists of its targets. So two seeds
   load the daemon alike, and run-to-run spread stays small. *)

(* Circuits warmed into the registry during set-up. *)
let warm_circuits = [| "s344"; "s382"; "s444"; "s510"; "s641"; "s713" |]

(* Sweep points go through [Flow.prepare_cached], a memo separate from
   the daemon's registry, so set-up warms it too. One small circuit
   keeps that extra set-up cost low. *)
let sweep_circuit = "s344"

(* Evaluation seeds per run. Flow time depends on the seed (the
   C-algorithm and IVC fills differ), so several seeds average that out;
   each (circuit, seed) pair still repeats within a run, so repeated
   warm replies can be checked for identity. *)
let eval_seeds seed = Array.init 16 (fun i -> (16 * seed) + i)

(* Tenant sizes are fixed, from 100 to 300 gates; the seed changes
   their structure. *)
let tenant_gates = [| 100; 140; 180; 220; 260; 300 |]

type item =
  | Health
  | Stats
  | Validate of int  (** tenant index; inline netlist text *)
  | Atpg_warm of string
  | Flow_warm of string * int  (** circuit, evaluation seed *)
  | Flow_fork of string * int
  | Sweep_point of int  (** evaluation seed *)
  | Tenant_flow of int * int  (** tenant index, evaluation seed *)

(* Shares in percent: one deck of 100 requests. *)
let shares =
  [ (`Health, 3); (`Stats, 2); (`Validate, 10); (`Atpg, 10); (`Flow, 55);
    (`Fork, 10); (`Sweep, 5); (`Tenant, 5) ]

let tenant_profiles ~seed =
  let rng = Util.Rng.create (0x7e4a47 + seed) in
  Array.to_list
    (Array.mapi
       (fun i n_gates ->
         let int lo hi = lo + Util.Rng.int rng (hi - lo + 1) in
         {
           Circuits.name = Printf.sprintf "tenant%d_%d" seed i;
           n_pi = int 4 16;
           n_po = int 2 10;
           n_ff = int 3 16;
           n_gates;
           seed = Util.Rng.bits rng;
         })
       tenant_gates)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Util.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Endless draws from [a]: each pass is a fresh shuffle of all of it. *)
let cycle rng a =
  let deck = ref [||] and pos = ref 0 in
  fun () ->
    if !pos = Array.length !deck then begin
      deck := shuffle rng a;
      pos := 0
    end;
    incr pos;
    !deck.(!pos - 1)

let pairs xs ys =
  Array.concat (Array.to_list (Array.map (fun x -> Array.map (fun y -> (x, y)) ys) xs))

let sequence ~seed n =
  let rng = Util.Rng.create (0x5e7e + seed) in
  let seeds = eval_seeds seed in
  let tenants = Array.init (Array.length tenant_gates) Fun.id in
  let kinds =
    cycle rng (Array.concat (List.map (fun (k, share) -> Array.make share k) shares))
  in
  let flow = cycle rng (pairs warm_circuits seeds) in
  let fork = cycle rng (pairs warm_circuits seeds) in
  let atpg = cycle rng warm_circuits in
  let validate = cycle rng tenants in
  let sweep = cycle rng seeds in
  (* every tenant is seen once per six tenant requests, so each run
     has the same number of registry misses *)
  let tenant = cycle rng tenants and tenant_seed = cycle rng seeds in
  Array.init n (fun _ ->
      match kinds () with
      | `Health -> Health
      | `Stats -> Stats
      | `Validate -> Validate (validate ())
      | `Atpg -> Atpg_warm (atpg ())
      | `Flow ->
        let c, s = flow () in
        Flow_warm (c, s)
      | `Fork ->
        let c, s = fork () in
        Flow_fork (c, s)
      | `Sweep -> Sweep_point (sweep ())
      | `Tenant ->
        let i = tenant () in
        Tenant_flow (i, tenant_seed ()))
