(** A many-time hash-based signature scheme (Merkle signature scheme).

    [2^height] Lamport one-time key pairs are generated up front; their
    public keys form the leaves of a Merkle tree whose root is the long-term
    public key. Each signature uses the next unused leaf and attaches the
    leaf's inclusion proof. Stateful: signing more than [2^height] times
    raises. *)

type signer
type public_key = string

type signature

val keygen : ?height:int -> Bp_util.Rng.t -> signer * public_key
(** Default height is 6 (64 signatures). *)

val capacity : signer -> int
(** Signatures remaining. *)

val sign : signer -> string -> signature
(** @raise Failure when the key pool is exhausted. *)

val verify : public_key -> string -> signature -> bool

val encode : signature -> string
val decode : string -> signature option
