(** SHA-256 (FIPS 180-4).

    Used for log digests, Merkle trees, HMAC and the hash-based signature
    schemes. Buffering, padding and midstates are OCaml over an
    incremental context, so large batches can be hashed without copying;
    the 64-byte block compression is a C kernel, chosen once when the
    module initialises: the x86 SHA extensions (SHA-NI) when the CPU has
    them, portable C otherwise. Both give the same digests; only host
    time differs. *)

type ctx
(** Mutable hashing context. *)

val init : unit -> ctx

val update : ctx -> string -> unit
(** Absorb the whole string. *)

val update_bytes : ctx -> bytes -> off:int -> len:int -> unit

val finalize : ctx -> string
(** Produce the 32-byte digest. The context must not be reused after. *)

val midstate : ctx -> string
(** Save the context's state after a whole number of 64-byte blocks, as
    an immutable 40-byte string. The context stays usable.
    @raise Invalid_argument if the absorbed length is not a multiple of
    64. *)

val resume : string -> ctx
(** A fresh context continuing from a {!midstate}: absorbing [s] and
    finalizing gives the digest of the saved prefix followed by [s].
    @raise Invalid_argument if the string is not a midstate. *)

val digest : string -> string
(** One-shot hash of a string; 32 raw bytes. One C call, with no
    streaming context. *)

val digest_list : string list -> string
(** Hash of the concatenation, without building the concatenation. *)

val hex : string -> string
(** [hex s] is the lowercase-hex SHA-256 of [s]. *)

val digest_length : int
(** 32. *)

(** The compression kernels, for differential testing. Everything above
    uses {!Kernel.selected}; nothing selects a kernel at run time. *)
module Kernel : sig
  type t

  val name : t -> string
  (** ["portable"] or ["sha-ni"]. *)

  val available : t list
  (** Every kernel this CPU can run, portable first. *)

  val selected : t
  (** The fastest available kernel: the one every other function here
      uses. *)

  val update_bytes : t -> ctx -> bytes -> off:int -> len:int -> unit
  (** {!val-update_bytes} through the given kernel. *)

  val finalize : t -> ctx -> string
  (** {!val-finalize} through the given kernel. *)

  val digest : t -> string -> string
  (** {!val-digest} through the given kernel. *)

  val hmac : t -> inner:string -> outer:string -> string -> string
  (** [hmac k ~inner ~outer msg] is the HMAC-SHA256 tag of [msg] under
      the key whose inner and outer pads hash to the {!midstate}s
      [inner] and [outer]: [H(outer ‖ H(inner ‖ msg))], both passes in
      one C call. [Hmac] builds on it.
      @raise Invalid_argument if either string is not a midstate. *)

  val hmac_equal : t -> inner:string -> outer:string -> string -> tag:string -> bool
  (** Whether [tag] equals [hmac k ~inner ~outer msg], compared in
      constant time inside the same C call. A [tag] that is not 32 bytes
      long gives [false]; it never raises on [tag].
      @raise Invalid_argument if either midstate is not one. *)
end
