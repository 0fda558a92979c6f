(** Per-node memoization of signature verification and content digests.

    PBFT's receive path re-verifies the same envelope signature and
    re-digests the same request batch many times per slot (prepare,
    commit, checkpoint, view-change proofs). This module memoizes those
    verdicts and digests {e per node} — a cache only ever replays work its
    own node performed (or, via {!sign}, the outcome the signer knows by
    construction), so it is an accelerator, never an oracle.

    Soundness invariant: {b a cached verdict never outlives the keystore
    state that produced it}. Entries are stamped with
    {!Signer.generation}; provisioning an identity or rolling a
    hash-based key pool bumps the generation and invalidates every older
    verdict.

    Everything is deterministic: FIFO eviction, no wall-clock, no
    randomness. A cache created with [~capacity:0 ~digest_budget:0] keeps
    nothing, so every call is the exact uncached computation (still
    counted as a miss); that is what [Deployment.create ~cache:false]
    builds, the tests' reference model. There is no
    process-wide mode: which bytes a message signs never depends on a
    cache (see {!Bp_pbft.Msg}). *)

type t

val create : ?capacity:int -> ?digest_budget:int -> Signer.t -> t
(** [capacity] bounds the verdict table (entries, FIFO-evicted; default
    4096; 0 keeps no verdict). [digest_budget] bounds the digest memo by the bytes of content
    it keeps alive (default 8 MiB — enough for the operations still in
    flight; a bigger window would mostly pin dead content on the major
    heap; 0 keeps no digest). *)

val keystore : t -> Signer.t

val verify : t -> signer:string -> msg:string -> signature:string -> bool
(** Memoized {!Signer.verify}: same verdicts, bit for bit. Keyed by
    [(signer, signature)] with the stored message compared on every probe,
    so colliding or tampered inputs recompute rather than cross-talk. *)

val probe : t -> signer:string -> msg:string -> signature:string -> bool option
(** Lookup half of {!verify}, for batched verification (see
    [Verify_batch]): [Some verdict] on a fresh-generation hit, [None]
    otherwise (always [None] at capacity 0). Counts the
    hit/miss exactly as {!verify} would. Must be called on the domain
    that owns the cache. *)

val record : t -> signer:string -> msg:string -> signature:string -> verdict:bool -> unit
(** Insertion half of {!verify}: store a verdict computed elsewhere
    (stamped with the current generation), without counting anything.
    No-op at capacity 0. Must be called on the domain that
    owns the cache. *)

val sign : t -> signer:string -> string -> string
(** {!Signer.sign}, additionally seeding the cache with the (known-true)
    verdict so a node's own loopback deliveries verify for free.
    @raise Not_found like {!Signer.sign} for unregistered identities. *)

val digest : t -> string -> string
(** Memoized {!Sha256.digest}. Probes by physical identity first, then by
    content (a fingerprint of length plus first/last 64 bytes narrows the
    candidates before any full comparison), so re-decoded copies of the
    same megabyte operation hash once per node. Strings under 256 bytes
    are hashed directly without touching the memo: at that size the probe
    costs as much as the hash, and unique small strings would only pile
    up never-hit entries for the GC to trace. *)

val lookup_digest : t -> string -> string
(** {!Sha256.digest} through the memo, read-only: the memoized digest if
    {!digest} already computed one for this content, else a direct hash.
    Never inserts and never touches the counters, so a node can reuse
    its signing-path digest of a committed op (for the log chain and the
    application) without changing any cache statistic. *)

(** {1 Diagnostics}

    Process-wide tallies, read by [bench/e2e/probe.ml]; they never affect
    a result. *)

type counters = {
  verify_hits : int;
  verify_misses : int;
  digest_hits : int;
  digest_misses : int;
}

val counters : unit -> counters
(** Process-global tallies (exact at [-j 1]; see implementation note).
    These aggregate over {e every} cache instance in the process — one
    per node — so they are not a single node's figures; read
    {!instance_counters} for per-node rates. *)

val instance_counters : t -> counters
(** This cache's own verify/digest tallies. *)

val reset_counters : unit -> unit
