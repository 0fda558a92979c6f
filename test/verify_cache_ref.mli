(** Reference verdict cache: the original [Hashtbl]-and-ring
    implementation of [Bp_crypto.Verify_cache]'s verdict table.

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
