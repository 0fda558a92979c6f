(** Per-node memoization of signature verification and content digests.

    PBFT's receive path re-verifies the same envelope signature and
    re-digests the same request batch many times per slot (prepare,
    commit, checkpoint, view-change proofs). This module memoizes those
    verdicts and digests {e per node} — a cache only ever replays work its
    own node performed (or, via {!sign}, the outcome the signer knows by
    construction, or, via a {!sha_memo}, this module's own hash of the
    very same string), so it is an accelerator, never an oracle.

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
    4096; 0 keeps no verdict). It keeps each key of up to 512 bytes
    (signature, signer and message together) as a copy in a byte store
    sized to the keys it holds, so a stored verdict keeps no message or
    signature alive; larger keys are kept by pointer. [digest_budget]
    bounds the digest memo by the bytes of content it keeps alive
    (FIFO-evicted; default 8 MiB — enough for the operations still in
    flight; a bigger window would mostly pin dead content on the major
    heap; 0 keeps no digest). Both tables start at 64 slots and grow by
    doubling as they fill, so a short-lived cache never pays for its
    full size. *)

val keystore : t -> Signer.t

val verify : t -> signer:string -> msg:string -> signature:string -> bool
(** Memoized {!Signer.verify}: same verdicts, bit for bit. Keyed by
    [(signer, signature)] with the stored message compared on every probe,
    so colliding or tampered inputs recompute rather than cross-talk. The
    key hashes from word loads of the signature and is compared by word
    loads; a hit allocates nothing, and neither does storing the verdict
    of a miss whose key is inline (up to 512 bytes), once the table has
    reached its size. *)

val probe : t -> signer:string -> msg:string -> signature:string -> bool option
(** Lookup half of {!verify}: [Some verdict] on a fresh-generation hit,
    [None] otherwise (always [None] at capacity 0). Counts the hit/miss
    exactly as {!verify} would. With {!record}, the verdict table's test
    seam: the tests observe and seed the table through these two. *)

val record : t -> signer:string -> msg:string -> signature:string -> verdict:bool -> unit
(** Insertion half of {!verify}: store a verdict (stamped with the
    current generation), without counting anything. No-op at capacity
    0. {!sign} seeds its own verdicts through it. *)

val sign : t -> signer:string -> string -> string
(** {!Signer.sign}, additionally seeding the cache with the (known-true)
    verdict so a node's own loopback deliveries verify for free.
    @raise Not_found like {!Signer.sign} for unregistered identities. *)

val digest : t -> string -> string
(** Memoized {!Sha256.digest}. The memo is a FIFO ring of
    [(content, digest)] slots behind an open-addressed index keyed by a
    fingerprint of the content: its length and its first and last 64
    bytes, read as eight-byte words. A probe compares a candidate by
    physical identity first, then by full content, so re-decoded copies
    of the same megabyte operation hash once per node, and contents that
    differ only in their middles (one fingerprint) each get their own
    entry. A hit allocates nothing, and the fingerprint takes no C call
    (the full comparison is [String.equal]). Strings under 256
    bytes are hashed directly without touching the memo: at that size the
    probe costs as much as the hash, and unique small strings would only
    pile up never-hit entries for the GC to trace. *)

val lookup_digest : t -> string -> string
(** {!Sha256.digest} through the memo, read-only: the memoized digest if
    {!digest} already computed one for this content, else a direct hash.
    Never inserts and never touches the counters, so a node can reuse
    its signing-path digest of a committed op (for the log chain and the
    application) without changing any cache statistic. *)

(** {1 Digests carried by a value}

    A value that travels between nodes in one process (a PBFT request
    record, shared through delivery hints) can carry a {!sha_memo} of
    one of its strings, so the first node to hash that string spares the
    others the pass. *)

type sha_memo
(** A SHA-256 memo of one string. Only this module writes it, and only
    with its own hash of the very string it was asked about; it is read
    only for that same string, compared by identity ([==]). So a memo
    shared by a copy of its value that carries another string, or by a
    forged or freshly decoded copy of the same bytes, never lends a
    digest it was not computed for. *)

val sha_memo : unit -> sha_memo
(** A new, empty memo. *)

val digest_with : t -> sha_memo -> string -> string
(** {!digest}, except that on a miss in the node's own memo the digest
    comes from the value's [sha_memo] when that holds one for this very
    string; otherwise it is hashed and the [sha_memo] keeps it. The
    node's memo inserts, evicts and counts exactly as under {!digest}. A
    cache created with [~digest_budget:0] never reads or writes the
    [sha_memo]: it hashes every time. *)

val lookup_digest_with : t -> sha_memo -> string -> string
(** {!lookup_digest}, with the same fall-back to the [sha_memo] as
    {!digest_with}. *)

(** {1 Diagnostics}

    Process-wide tallies, read by [bench/e2e/probe.ml]; they never affect
    a result. *)

type counters = {
  verify_hits : int;
  verify_misses : int;
  digest_hits : int;
  digest_misses : int;
      (** Misses in the node's own memo. Since a value's {!sha_memo} can
          supply the digest, a miss no longer costs a SHA-256 pass of
          its own; {!sha_bytes} counts the passes. *)
}

val counters : unit -> counters
(** Process-global tallies (exact at [-j 1]; see implementation note).
    These aggregate over {e every} cache instance in the process — one
    per node — so they are not a single node's figures; read
    {!instance_counters} for per-node rates. *)

val instance_counters : t -> counters
(** This cache's own verify/digest tallies. *)

val sha_bytes : t -> int
(** Bytes this cache has hashed with SHA-256 for {!digest},
    {!lookup_digest} and their [_with] twins, hits in either memo
    excluded. Kept per instance only. *)

val reset_counters : unit -> unit
