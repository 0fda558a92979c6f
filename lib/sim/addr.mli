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

(** A dense table keyed by address: one row per datacenter, one cell per
    index, for address spaces a deployment lays out itself (a few small
    indices per datacenter). Lookups are bounds-checked and allocate
    nothing. Only {!set} sizes the table, so it must be given only
    addresses the deployment chose, never ones read off the wire. *)
module Grid : sig
  type addr := t
  type 'a t

  val create : absent:'a -> 'a t
  (** An empty table; every cell holds [absent]. *)

  val get : 'a t -> addr -> 'a
  (** The cell's value, or [absent] when it was never set or the
      address lies outside the table (negative parts included). *)

  val mem : 'a t -> addr -> bool
  (** The cell holds something other than [absent] (physically). *)

  val set : 'a t -> addr -> 'a -> unit
  (** Store a value, growing the table to reach the address.
      @raise Invalid_argument on a negative [dc] or [idx]. *)

  val iter_dc : 'a t -> int -> ('a -> unit) -> unit
  (** Apply to every value set in a datacenter's row, in index order. *)
end
