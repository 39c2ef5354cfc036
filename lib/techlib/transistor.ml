type polarity =
  | Nmos
  | Pmos

type params = {
  polarity : polarity;
  w : float;
  l_eff : float;
  vt0 : float;
  n_swing : float;
  delta_body : float;
  eta_dibl : float;
  mu0_cox : float;
  t_ox : float;
  phi_ox : float;
  jg_a : float;
  jg_b : float;
  r_on : float;
}

let thermal_voltage = 0.02585

let default_nmos =
  {
    polarity = Nmos;
    w = 90e-9;
    l_eff = 45e-9;
    vt0 = 0.30;
    n_swing = 1.5;
    delta_body = 0.18;
    eta_dibl = 0.2;
    mu0_cox = 3.2e-4;
    t_ox = 1.2e-9;
    phi_ox = 3.1;
    jg_a = 6.0e5;
    jg_b = 6.9e10;
    r_on = 2.2e3;
  }

let default_pmos =
  {
    polarity = Pmos;
    w = 180e-9;
    l_eff = 45e-9;
    vt0 = 0.29;
    n_swing = 1.5;
    delta_body = 0.18;
    eta_dibl = 0.18;
    mu0_cox = 1.3e-4;
    t_ox = 1.2e-9;
    phi_ox = 4.5;
    (* hole tunnelling: larger barrier, roughly an order of magnitude
       weaker than electron tunnelling at the same field *)
    jg_a = 5.0e4;
    jg_b = 9.6e10;
    r_on = 3.8e3;
  }

(* Eq. (2)-(3). All voltages source-referred and positive for the
   conducting-channel convention; callers map PMOS onto this. *)
let subthreshold_current p ~vgs ~vds ~vsb =
  let vt = thermal_voltage in
  let a = p.mu0_cox *. (p.w /. p.l_eff) *. vt *. vt *. Float.exp 1.8 in
  let vth_eff = p.vt0 +. (p.delta_body *. vsb) -. (p.eta_dibl *. vds) in
  let expo = (vgs -. vth_eff) /. (p.n_swing *. vt) in
  (* clamp to avoid overflow for strongly-on devices *)
  let expo = Float.min expo 60.0 in
  a *. Float.exp expo *. (1.0 -. Float.exp (-.vds /. vt))

(* Eq. (4): direct-tunnelling current density times gate area. *)
let gate_tunneling_current p ~vox =
  if vox <= 0.0 then 0.0
  else begin
    let ratio = Float.min (vox /. p.phi_ox) 0.999 in
    let field = vox /. p.t_ox in
    let j =
      p.jg_a *. field *. field
      *. Float.exp (-.p.jg_b *. (1.0 -. ((1.0 -. ratio) ** 1.5)) /. field)
    in
    j *. p.w *. p.l_eff
  end

type stack_device = {
  dev : params;
  gate_on : bool;
}

(* Conducting devices sitting above the topmost off device pass the far
   rail down weakly (an NMOS passing a high, symmetrically a PMOS
   passing a low) and each drops about one threshold; conducting
   devices below the topmost off device are tied to the near rail and
   drop only their ohmic I*R. The per-device role is fixed by the
   on/off pattern, not by the current, so the bisection stays
   monotone. *)
type role =
  | Off
  | On_strong
  | On_weak_pass

let roles devices =
  let arr = Array.of_list devices in
  let n = Array.length arr in
  let topmost_off = ref (-1) in
  for i = 0 to n - 1 do
    if not arr.(i).gate_on then topmost_off := i
  done;
  let top = !topmost_off in
  Array.mapi
    (fun i d ->
      if not d.gate_on then Off
      else if top >= 0 && i > top then On_weak_pass
      else On_strong)
    arr

(* Voltage an off device needs across drain-source to carry current
   [i] when its source sits at [vs]; monotone in vds. *)
let off_vds_for_current p ~vs ~headroom ~i =
  let current vds = subthreshold_current p ~vgs:(-.vs) ~vds ~vsb:vs in
  if headroom <= 0.0 then 0.0
  else if current headroom <= i then headroom
  else begin
    let lo = ref 0.0 and hi = ref headroom in
    for _ = 1 to 60 do
      let mid = 0.5 *. (!lo +. !hi) in
      if current mid < i then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)
  end

(* Walk the stack from the grounded end, returning the voltage reached
   at the top when every device carries current [i] (increasing in i)
   along with every internal node voltage. *)
let walk devices rls ~v_rail ~i =
  let arr = Array.of_list devices in
  let n = Array.length arr in
  let voltages = Array.make n 0.0 in
  let vs = ref 0.0 in
  for idx = 0 to n - 1 do
    let d = arr.(idx) in
    let drop =
      match rls.(idx) with
      | On_strong -> Float.min (i *. d.dev.r_on) (v_rail -. !vs)
      | On_weak_pass -> Float.min d.dev.vt0 (v_rail -. !vs)
      | Off -> off_vds_for_current d.dev ~vs:!vs ~headroom:(v_rail -. !vs) ~i
    in
    vs := !vs +. drop;
    voltages.(idx) <- !vs
  done;
  (!vs, voltages)

let solve_stack devices ~v_rail =
  if devices = [] then invalid_arg "Transistor.stack_current: empty stack";
  if List.for_all (fun d -> d.gate_on) devices then begin
    (* fully conducting: series resistors across the rail *)
    let r = List.fold_left (fun acc d -> acc +. d.dev.r_on) 0.0 devices in
    let i = v_rail /. r in
    let voltages = Array.make (List.length devices) 0.0 in
    let vs = ref 0.0 in
    List.iteri
      (fun idx d ->
        vs := !vs +. (i *. d.dev.r_on);
        voltages.(idx) <- !vs)
      devices;
    (i, voltages)
  end
  else begin
    let rls = roles devices in
    (* upper bound: weakest single off device with the full rail *)
    let i_hi =
      List.fold_left
        (fun acc d ->
          if d.gate_on then acc
          else
            Float.min acc
              (subthreshold_current d.dev ~vgs:0.0 ~vds:v_rail ~vsb:0.0))
        infinity devices
    in
    let lo = ref 0.0 and hi = ref (Float.max i_hi 1e-18) in
    for _ = 1 to 80 do
      let mid = 0.5 *. (!lo +. !hi) in
      let top, _ = walk devices rls ~v_rail ~i:mid in
      if top < v_rail then lo := mid else hi := mid
    done;
    let i = 0.5 *. (!lo +. !hi) in
    let _, voltages = walk devices rls ~v_rail ~i in
    (i, voltages)
  end

let stack_solve devices ~v_rail =
  let i, voltages = solve_stack devices ~v_rail in
  let n = Array.length voltages in
  (i, if n <= 1 then [||] else Array.sub voltages 0 (n - 1))

let stack_current devices ~v_rail = fst (solve_stack devices ~v_rail)
let stack_node_voltages devices ~v_rail = snd (stack_solve devices ~v_rail)
