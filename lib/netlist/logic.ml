type t =
  | Zero
  | One
  | X

let equal a b =
  match a, b with
  | Zero, Zero | One, One | X, X -> true
  | (Zero | One | X), _ -> false

let to_char = function
  | Zero -> '0'
  | One -> '1'
  | X -> 'x'

let of_char = function
  | '0' -> Zero
  | '1' -> One
  | 'x' | 'X' -> X
  | c -> invalid_arg (Printf.sprintf "Logic.of_char: %C" c)

let of_bool b = if b then One else Zero

let to_bool = function
  | Zero -> Some false
  | One -> Some true
  | X -> None

let lnot = function
  | Zero -> One
  | One -> Zero
  | X -> X

let ( &&& ) a b =
  match a, b with
  | Zero, _ | _, Zero -> Zero
  | One, One -> One
  | X, (One | X) | One, X -> X

let ( ||| ) a b =
  match a, b with
  | One, _ | _, One -> One
  | Zero, Zero -> Zero
  | X, (Zero | X) | Zero, X -> X

let xor a b =
  match a, b with
  | X, _ | _, X -> X
  | Zero, Zero | One, One -> Zero
  | Zero, One | One, Zero -> One

let pp fmt v = Format.pp_print_char fmt (to_char v)

module Five = struct
  type five =
    | F0
    | F1
    | FX
    | D
    | Dbar

  let equal a b =
    match a, b with
    | F0, F0 | F1, F1 | FX, FX | D, D | Dbar, Dbar -> true
    | (F0 | F1 | FX | D | Dbar), _ -> false

  let good = function
    | F0 -> Zero
    | F1 -> One
    | FX -> X
    | D -> One
    | Dbar -> Zero

  let faulty = function
    | F0 -> Zero
    | F1 -> One
    | FX -> X
    | D -> Zero
    | Dbar -> One

  let of_pair g f =
    match g, f with
    | Zero, Zero -> F0
    | One, One -> F1
    | One, Zero -> D
    | Zero, One -> Dbar
    | X, _ | _, X -> FX

  let lnot v = of_pair (lnot (good v)) (lnot (faulty v))

  let land_ a b = of_pair (good a &&& good b) (faulty a &&& faulty b)

  let lor_ a b = of_pair (good a ||| good b) (faulty a ||| faulty b)

  let lxor_ a b = of_pair (xor (good a) (good b)) (xor (faulty a) (faulty b))

  let make ~good ~faulty = of_pair good faulty

  let to_string = function
    | F0 -> "0"
    | F1 -> "1"
    | FX -> "x"
    | D -> "D"
    | Dbar -> "D'"

  let pp fmt v = Format.pp_print_string fmt (to_string v)
end
