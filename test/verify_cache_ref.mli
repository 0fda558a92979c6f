(** Reference verdict cache and digest memo: the original
    [Hashtbl]-and-ring implementation of [Bp_crypto.Verify_cache]'s
    verdict table, and the original [Hashtbl]-and-[Queue] digest memo
    ({!Digest_memo}).

    Retained as the test suite's model for the production cache: driven
    with the same calls, the two must give the same verdicts and count
    the same hits and misses, step for step. Not for production use. *)

type t

val create : ?capacity:int -> Bp_crypto.Signer.t -> t
val verify : t -> signer:string -> msg:string -> signature:string -> bool
val probe : t -> signer:string -> msg:string -> signature:string -> bool option
val record : t -> signer:string -> msg:string -> signature:string -> verdict:bool -> unit
val sign : t -> signer:string -> string -> string

val hits : t -> int
(** Verdict hits so far ({!verify} and {!probe}). *)

val misses : t -> int

(** The original digest memo: a [Hashtbl] from a CRC-32 fingerprint of
    the length and first and last 64 bytes to a bucket list of
    [(content, digest)], with a [Queue] of insertions for byte-budget
    FIFO eviction. Driven with the same [digest] and [lookup_digest]
    calls, the production memo must return the same digests and count
    the same hits and misses, step for step. *)
module Digest_memo : sig
  type t

  val create : budget:int -> t
  val digest : t -> string -> string
  val lookup_digest : t -> string -> string

  val hits : t -> int
  (** Digest hits so far ({!digest} only; lookups count nothing). *)

  val misses : t -> int
end
