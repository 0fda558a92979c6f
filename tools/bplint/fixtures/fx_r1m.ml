(* Fixture: R1-polycmp's min/max half. [min] and [max] are library
   functions over polymorphic compare, so they are flagged at every
   type, primitive ones included. *)

let larger (a : int) (b : int) = max a b
let smaller (a : float) (b : float) = Stdlib.min a b
let longest (l : string list) = List.fold_left max "" l

(* The monomorphic forms are fine and must NOT be flagged. *)
let larger_int (a : int) (b : int) = Int.max a b
let clamp (x : float) = if x >= -1.0 then x else -1.0
