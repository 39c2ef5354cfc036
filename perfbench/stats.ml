(* Order statistics and result aggregates shared by every workload. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks, numpy's default:
   [quantile 0.5] is the median. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* A percentile is only reported when at least ten samples lie beyond
   it: with fewer, it is one or two outliers, not a tail. [p] is a
   whole percent, so the count is exact: n - ceil(n * p / 100). *)
let samples_beyond ~p n = n - (((n * p) + 99) / 100)

let percentile ~p xs =
  if samples_beyond ~p (List.length xs) >= 10 then
    Some (quantile (float_of_int p /. 100.0) xs)
  else None

(* Table I's aggregate: 100·(Σtrad − Σprop)/Σtrad over (trad, prop)
   pairs, so large circuits weigh by their power, not one vote each. *)
let reduction_pct pairs =
  let trad = List.fold_left (fun acc (t, _) -> acc +. t) 0.0 pairs in
  let prop = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 pairs in
  100.0 *. (trad -. prop) /. trad

let static_reduction_pct (cs : Scanpower.Flow.comparison list) =
  reduction_pct
    (List.map
       (fun (c : Scanpower.Flow.comparison) ->
         (c.traditional.static_uw, c.proposed.static_uw))
       cs)

let dynamic_reduction_pct (cs : Scanpower.Flow.comparison list) =
  reduction_pct
    (List.map
       (fun (c : Scanpower.Flow.comparison) ->
         (c.traditional.dynamic_per_hz_uw, c.proposed.dynamic_per_hz_uw))
       cs)

(* The paper's qualitative Table I claim, per circuit: the proposed
   structure leaks less than both input control and traditional scan,
   and it switches less than traditional scan. How input control's
   leakage compares with traditional scan's is no part of the claim:
   in the paper's own Table I it leaks more on six of the twelve
   circuits. *)
let ordering_holds (c : Scanpower.Flow.comparison) =
  c.proposed.static_uw < c.input_control.static_uw
  && c.proposed.static_uw < c.traditional.static_uw
  && c.proposed.dynamic_per_hz_uw < c.traditional.dynamic_per_hz_uw
