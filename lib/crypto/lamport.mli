(** Lamport one-time signatures over SHA-256.

    A genuinely asymmetric, hash-based scheme: the secret key is 2x256
    random 32-byte preimages; the public key is their hashes. Signing a
    message reveals one preimage per digest bit. Each key pair must sign at
    most once — {!Merkle_sig} lifts this to a many-time scheme. *)

type secret_key
type public_key = string
(** The public key is compressed to a single 32-byte digest (the hash of
    all 512 hashed preimages, in order). *)

type signature

val keygen : Bp_util.Rng.t -> secret_key * public_key

val sign : secret_key -> string -> signature
(** Sign an arbitrary message (its SHA-256 is what is actually signed). *)

val verify : public_key -> string -> signature -> bool

val encode : signature -> string
val decode : string -> signature option
