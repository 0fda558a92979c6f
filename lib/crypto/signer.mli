(** Identity keystore and signing facade used by all protocols.

    Each protocol node owns an identity; "the set of nodes and their public
    keys are known to all nodes" (paper §III-B), which this keystore
    models. Two interchangeable schemes:

    - [`Hmac] — per-identity secret, tag = HMAC-SHA256(secret, msg). Fast;
      verification consults the shared registry. This is the scheme the
      paper's evaluation models (it treats signature cost as negligible).
    - [`Hash_based] — a real asymmetric Merkle/Lamport scheme; verification
      needs only the registered public root. Slower and with large
      signatures, used to demonstrate full fidelity.

    Byzantine nodes hold a keystore handle like everyone else but can only
    produce signatures for identities they control; tests assert that
    forged or tampered signatures are rejected. *)

type t

type scheme = [ `Hmac | `Hash_based ]

val create : ?scheme:scheme -> Bp_util.Rng.t -> t
(** Defaults to [`Hmac]. *)

val scheme : t -> scheme

val add_identity : t -> string -> unit
(** Provision keys for a new identity. Idempotent. For [`Hash_based] the
    one-time key pool is sized for long simulations (4096 signatures). *)

val sign : t -> signer:string -> string -> string
(** Signature bytes over the message by the given identity.
    @raise Not_found if the identity was never registered. *)

val verify : t -> signer:string -> msg:string -> signature:string -> bool
(** [false] for unknown identities or invalid signatures (never raises).
    Equivalent to {!verify_key} over {!snapshot}. *)

type key = Hmac_key of Hmac.prepared | Hash_roots of string list
(** An immutable snapshot of one identity's verification state. Unlike
    the keystore itself — whose hash-based root lists grow on one-time
    pool rollover — a [key] never changes after {!snapshot} returns it,
    so a verdict computed from it later (see [Verify_batch]) cannot
    depend on keystore changes made since, and it may be verified
    against on any domain without synchronization. *)

val snapshot : t -> signer:string -> key option
(** The identity's current verification key, or [None] if it was never
    registered. Must be taken on the domain that owns the keystore. *)

val verify_key : key -> msg:string -> signature:string -> bool
(** Pure verification against a snapshot: no keystore access, safe on
    any domain. [verify t ~signer ~msg ~signature] equals
    [match snapshot t ~signer with None -> false
     | Some k -> verify_key k ~msg ~signature] at snapshot time. *)

val generation : t -> int
(** Monotone counter bumped whenever the keystore's verification state
    changes: a new identity is provisioned, or a [`Hash_based] one-time
    key pool rolls over (publishing a new root). [Verify_cache] stamps
    every memoized verdict with the generation it was computed under, so a
    cached verdict never outlives the keystore state that produced it. *)

