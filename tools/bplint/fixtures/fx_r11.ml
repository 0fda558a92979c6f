(* R11-ledger fixtures: in the verify of a structure shaped like App.S
   (it binds verify, apply and digest), a Record.Comm pattern is
   flagged, alone or inside an or-pattern; a Comm pattern in apply, in
   a verify outside that shape, or on another type's Comm constructor
   is not. *)

open Blockplane

module Own_credits = struct
  (* BAD: the app judges a send by its own bookkeeping. *)
  let verify credits = function
    | Record.Comm { Record.dest; _ } -> dest < credits
    | Record.Commit _ | Record.Recv _ | Record.Mirrored _ -> false

  let apply _ _ = ()
  let digest _ = ""
end

module Or_pattern = struct
  let verify _ r =
    match r with
    (* BAD: an or-pattern judges the send all the same. *)
    | Record.Commit _ | Record.Comm _ -> false
    | Record.Recv _ | Record.Mirrored _ -> false

  let apply _ _ = ()
  let digest _ = ""
end

(* OK: a Comm pattern in apply, not verify. *)
module Pays_in_apply = struct
  let verify _ _ = false

  let apply _ = function
    | Record.Comm _ -> ()
    | Record.Commit _ | Record.Recv _ | Record.Mirrored _ -> ()

  let digest _ = ""
end

(* OK: not App.S-shaped (no apply or digest). *)
module Router = struct
  let verify = function
    | Record.Comm _ -> false
    | Record.Commit _ | Record.Recv _ | Record.Mirrored _ -> false
end

(* OK: some other type's Comm. *)
type wire = Comm of int | Other

module Other_comm = struct
  let verify _ = function Comm n -> n > 0 | Other -> false
  let apply _ _ = ()
  let digest _ = ""
end
