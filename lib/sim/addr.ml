type t = { dc : int; idx : int }

let make ~dc ~idx = { dc; idx }

let compare a b =
  let c = Int.compare a.dc b.dc in
  if c <> 0 then c else Int.compare a.idx b.idx

let equal a b = compare a b = 0
let hash a = (a.dc * 8191) + a.idx
(* Same bytes as [Printf.sprintf "n%d.%d"], without the format
   interpreter: addresses are rendered on per-message paths. *)
let to_string a =
  String.concat "" [ "n"; Int.to_string a.dc; "."; Int.to_string a.idx ]
let pp ppf a = Format.pp_print_string ppf (to_string a)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
