(** Node addresses: a node lives in a datacenter and has an index within
    it. Clients and auxiliary processes also get addresses (with a
    distinguishing index range chosen by the deployment). *)

type t = { dc : int; idx : int }

val make : dc:int -> idx:int -> t
val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** The int hash {!Tbl} uses. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

module Tbl : Hashtbl.S with type key = t
