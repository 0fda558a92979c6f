type t = int

let zero = 0

let of_ns n =
  if n < 0 then invalid_arg "Time.of_ns: negative";
  n

let of_ms ms = of_ns (int_of_float (ms *. 1e6 +. 0.5))
let of_sec s = of_ns (int_of_float (s *. 1e9 +. 0.5))

let to_ns t = t
let to_ms t = float_of_int t /. 1e6
let to_sec t = float_of_int t /. 1e9

(* All comparisons below are written out with [int]-typed operands so the
   compiler emits inline integer comparisons. Aliasing the polymorphic
   [Stdlib.compare] / [Stdlib.( < )] instead sends every virtual-time
   comparison — the event heap does dozens per scheduled event — through
   the generic structural-comparison C runtime. *)

let add (a : t) (b : t) : t = a + b

let diff (a : t) (b : t) : t =
  if a < b then invalid_arg "Time.diff: negative";
  a - b

let scale t f = of_ns (int_of_float (float_of_int t *. f +. 0.5))
let max (a : t) (b : t) : t = if a >= b then a else b
let compare (a : t) (b : t) = if a < b then -1 else if a > b then 1 else 0
let ( < ) (a : t) (b : t) = a < b
let ( <= ) (a : t) (b : t) = a <= b
let ( > ) (a : t) (b : t) = a > b
let ( >= ) (a : t) (b : t) = a >= b

let pp ppf t = Format.fprintf ppf "%.3fms" (to_ms t)
