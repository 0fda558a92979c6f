(** Batched signature verification through a per-node cache.

    Accepts a batch of independent registry-keyed
    [(signer, signature, message)] checks and answers them on the
    calling domain: the verdict list is element-wise equal to sequential
    [Verify_cache.verify] / [Signer.verify]. The batch shape lets a
    caller submit early and await late (the replica's prefetch does), and
    gives every receive path one place to count its checks.

    Two rules fix what a verdict may depend on:

    - {b Snapshot at submit}: signers are resolved to immutable
      {!Signer.key} snapshots when the batch is submitted; the await
      runs the pure {!Signer.verify_key} and never reads the keystore,
      so keystore churn between submit and await cannot move a verdict.
    - {b Cache partition}: the per-node {!Verify_cache} is consulted
      once per batch — {!Verify_cache.probe} at submit,
      {!Verify_cache.record} at await.

    The stats mutex makes this module, alongside [lib/parallel], exempt
    from the bplint R2-domain rule: [-j] experiment tasks on different
    domains all count through {!global}. *)

type t
(** A verification context: batch stats. *)

type job = { signer : string; msg : string; signature : string }
(** Verified against the cache's keystore registry, through the cache. *)

val create : unit -> t

type handle
(** An outstanding batch; claim it with {!await}. *)

val submit : cache:Verify_cache.t -> t -> job list -> handle
(** Probe the cache and snapshot signer keys from its keystore
    ({!Verify_cache.keystore}); nothing is computed yet. Must be called
    on the domain that owns [cache]. A cache that keeps nothing probes
    as a miss every time, so every job is computed. *)

val await : handle -> bool list
(** Compute the missed jobs: verdicts in job order, cache records
    written. Idempotent — a second await returns the cached verdict
    list. *)

val verify : cache:Verify_cache.t -> t -> job list -> bool list
(** [verify ~cache t jobs] is [await (submit ~cache t jobs)]. *)

val verify_one :
  cache:Verify_cache.t ->
  t ->
  signer:string ->
  msg:string ->
  signature:string ->
  bool
(** Single check through the batch machinery. *)

(** {1 Stats} *)

type stats = {
  batches : int; (** batches submitted *)
  jobs_submitted : int; (** total jobs across all batches *)
}

val stats : t -> stats
val reset_stats : t -> unit

(** {1 Process-global context} *)

val global : unit -> t
(** The context the receive paths (replica batch validation,
    transmission-record bundles, comm-daemon signature collection)
    share. *)
