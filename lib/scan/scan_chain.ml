open Netlist

type t = {
  circuit : Circuit.t;
  order : int array; (* every cell, chain after chain, scan-in end first *)
  lengths : int array; (* per chain *)
  positions : (int, int) Hashtbl.t;
}

let build c chains =
  let order = Array.concat chains in
  let positions = Hashtbl.create (Array.length order) in
  Array.iteri (fun pos id -> Hashtbl.replace positions id pos) order;
  {
    circuit = c;
    order;
    lengths = Array.of_list (List.map Array.length chains);
    positions;
  }

let natural c = build c [ Circuit.dffs c ]

let of_order c order =
  let dffs = Circuit.dffs c in
  if Array.length order <> Array.length dffs then
    invalid_arg "Scan_chain.of_order: wrong length";
  let expected = Hashtbl.create 16 in
  Array.iter (fun id -> Hashtbl.replace expected id ()) dffs;
  Array.iter
    (fun id ->
      if not (Hashtbl.mem expected id) then
        invalid_arg "Scan_chain.of_order: not a permutation of the flip-flops";
      Hashtbl.remove expected id)
    order;
  build c [ order ]

let of_orders c chains =
  let seen = Hashtbl.create 16 in
  List.iter
    (Array.iter (fun id ->
         if not (Gate.equal_kind (Circuit.node c id).Circuit.kind Gate.Dff) then
           invalid_arg "Scan_chain.of_orders: not a flip-flop";
         if Hashtbl.mem seen id then
           invalid_arg "Scan_chain.of_orders: flip-flop in two chains";
         Hashtbl.replace seen id ()))
    chains;
  if Hashtbl.length seen <> Array.length (Circuit.dffs c) then
    invalid_arg "Scan_chain.of_orders: chains do not cover every flip-flop";
  build c chains

let partition c ~chains =
  if chains < 1 then invalid_arg "Scan_chain.partition: chains < 1";
  let dffs = Circuit.dffs c in
  let k = min chains (max 1 (Array.length dffs)) in
  let buckets = Array.make k [] in
  Array.iteri (fun i id -> buckets.(i mod k) <- id :: buckets.(i mod k)) dffs;
  build c
    (Array.to_list (Array.map (fun l -> Array.of_list (List.rev l)) buckets))

let circuit t = t.circuit
let length t = Array.length t.order
let cells t = Array.copy t.order
let cell_at t i = t.order.(i)
let position_of t id = Hashtbl.find t.positions id
let chain_count t = Array.length t.lengths
let chain_lengths t = Array.to_list t.lengths
let shift_cycles t = Array.fold_left max 0 t.lengths

(* After n shifts (cell.(j) <- cell.(j-1), cell.(0) <- input), the bit
   entering at cycle k lands in chain position n-1-k. A chain of n_k <
   N cells takes N - n_k leading zeros, so its bit at cycle k is the
   one for relative cycle k - (N - n_k). *)
let shift_in_sequence t target =
  if Array.length target <> length t then
    invalid_arg "Scan_chain.shift_in_sequence: wrong target length";
  let n_shift = shift_cycles t in
  List.init n_shift (fun cycle ->
      let bits = Array.make (chain_count t) false in
      let start = ref 0 in
      Array.iteri
        (fun i n ->
          let k = cycle - (n_shift - n) in
          if k >= 0 then bits.(i) <- target.(!start + n - 1 - k);
          start := !start + n)
        t.lengths;
      bits)
