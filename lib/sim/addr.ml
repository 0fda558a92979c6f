type t = { dc : int; idx : int }

let make ~dc ~idx = { dc; idx }

let compare a b =
  let c = Int.compare a.dc b.dc in
  if c <> 0 then c else Int.compare a.idx b.idx

let equal a b = a.dc = b.dc && a.idx = b.idx
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

(* Rows by datacenter, cells by index; both dimensions grow on [set]
   only. A cell never set holds [absent]. *)
module Grid = struct
  type addr = t
  type 'a t = { absent : 'a; mutable rows : 'a array array }

  let create ~absent = { absent; rows = [||] }

  let get g (a : addr) =
    let rows = g.rows in
    if a.dc >= 0 && a.dc < Array.length rows then begin
      let row = Array.unsafe_get rows a.dc in
      if a.idx >= 0 && a.idx < Array.length row then Array.unsafe_get row a.idx
      else g.absent
    end
    else g.absent

  let mem g a = get g a != g.absent

  let set g (a : addr) v =
    if a.dc < 0 || a.idx < 0 then invalid_arg "Addr.Grid.set: negative address";
    if a.dc >= Array.length g.rows then begin
      let rows = Array.make (a.dc + 1) [||] in
      Array.blit g.rows 0 rows 0 (Array.length g.rows);
      g.rows <- rows
    end;
    let row = g.rows.(a.dc) in
    if a.idx >= Array.length row then begin
      let grown = Array.make (a.idx + 1) g.absent in
      Array.blit row 0 grown 0 (Array.length row);
      g.rows.(a.dc) <- grown
    end;
    g.rows.(a.dc).(a.idx) <- v

  let iter_dc g dc f =
    if dc >= 0 && dc < Array.length g.rows then
      Array.iter (fun v -> if v != g.absent then f v) g.rows.(dc)
end
