(** HMAC-SHA256 (RFC 2104). *)

type prepared
(** A key with its inner and outer pads already hashed: two immutable
    {!Sha256.midstate} strings. Safe to share across domains. *)

val prepare : string -> prepared
(** Pad and pre-hash a key once. Keys longer than the 64-byte block size
    are hashed first, per the RFC. *)

val mac : prepared -> string -> string
(** [mac (prepare key) msg] is the 32-byte HMAC tag. *)

val verify_prepared : prepared -> msg:string -> tag:string -> bool
(** Constant-time comparison of [tag] against [mac k msg]. A tag of the
    wrong length gives [false]; it never raises. *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg] is [mac (prepare key) msg]. *)

val verify : key:string -> msg:string -> tag:string -> bool
(** [verify ~key] is [verify_prepared (prepare key)]. *)

(** The same functions through a given SHA-256 kernel, for differential
    testing. Everything above uses {!Sha256.Kernel.selected}. *)
module Kernel : sig
  val mac : Sha256.Kernel.t -> prepared -> string -> string
  val verify_prepared : Sha256.Kernel.t -> prepared -> msg:string -> tag:string -> bool
end
