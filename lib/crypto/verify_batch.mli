(** Batched, optionally parallel signature verification.

    Accepts a batch of independent verification jobs — registry-keyed
    [(signer, signature, message)] checks and raw lamport one-time
    signatures — and fans it across a [Bp_parallel.Pool] of worker
    domains, joining in {e index order}: the verdict list is
    byte-identical to sequential [Signer.verify] / [Lamport.verify] at
    any worker count, so protocol tables never depend on [--verify-jobs].

    Domain-safety rules (see the implementation for the full argument):

    - {b Snapshot at submit}: keyed signers are resolved to immutable
      {!Signer.key} snapshots on the calling domain; workers run the
      pure {!Signer.verify_key} and never touch the keystore.
    - {b Cache partition}: the per-node {!Verify_cache} is
      consulted once per batch on the calling domain — {!Verify_cache.probe}
      before fan-out, {!Verify_cache.record} after the join. Worker
      domains never see the cache.

    Alongside [lib/parallel], this is the only module exempt from the
    bplint R2-domain rule. *)

type t
(** A verification context: a worker pool (when [jobs > 1]) plus stats. *)

type job =
  | Keyed of { signer : string; msg : string; signature : string }
      (** Verified against the cache's keystore registry, through the
          per-node cache. *)
  | Lamport of {
      key : Lamport.public_key;
      msg : string;
      signature : Lamport.signature;
    }
      (** Raw one-time signature check; never cached (the sequential
          reference [Lamport.verify] isn't either). *)

val create : ?jobs:int -> unit -> t
(** [jobs <= 1] (the default) spawns no domains: every batch runs
    inline on the awaiting domain, the sequential reference path. *)

val jobs : t -> int

val shutdown : t -> unit
(** Join the worker pool, if any. Idempotent. *)

type handle
(** An outstanding batch; claim it with {!await}. *)

val submit : cache:Verify_cache.t -> t -> job list -> handle
(** Probe the cache, snapshot signer keys from its keystore
    ({!Verify_cache.keystore}), and enqueue the residue on the worker
    pool without blocking — the caller may overlap other work before
    {!await}ing. Must be called on the domain that owns [cache]. A
    cache that keeps nothing probes as a miss every time, so every job
    is computed. *)

val await : handle -> bool list
(** Join the batch: verdicts in job order, cache records written (on
    the calling domain). Idempotent — a second await returns the cached
    verdict list. *)

val verify : cache:Verify_cache.t -> t -> job list -> bool list
(** [verify ~cache t jobs] is [await (submit ~cache t jobs)]: verdicts
    in job order, equal element-wise to the sequential reference
    ([Verify_cache.verify] / [Signer.verify] for keyed jobs,
    [Lamport.verify] for lamport jobs). *)

val verify_one :
  cache:Verify_cache.t ->
  t ->
  signer:string ->
  msg:string ->
  signature:string ->
  bool
(** Single keyed check through the batch machinery (inline, no fan-out:
    batches of one never leave the calling domain). *)

(** {1 Stats} *)

type stats = {
  batches : int; (** batches submitted *)
  jobs_submitted : int; (** total jobs across all batches *)
  fanned : int; (** jobs that actually went to worker domains *)
  cache_hits : int; (** jobs answered by the cache probe, never fanned *)
  fanned_batches : int; (** batches with at least one job on workers *)
  occupancy : float;
      (** mean over fanned batches of [min(batch, jobs) / jobs] — 1.0
          means every fan-out filled all worker slots *)
  hist : int array; (** batch-size histogram, buckets {!hist_buckets} *)
}

val hist_buckets : string array
(** Labels for {!stats.hist}: sizes 1, 2, 3-4, 5-8, 9-16, 17+. *)

val stats : t -> stats
val reset_stats : t -> unit

(** {1 Process-global default context}

    The receive paths (replica batch validation, transmission-record
    bundles, comm-daemon signature collection) share one context sized
    by the [--verify-jobs] flag. *)

val set_default_jobs : int -> unit
(** Resize the shared context (clamped to [>= 1]; default 1). Shuts
    down the old pool if the size changed. Call at startup or between
    bench configurations, never mid-simulation. *)

val default_jobs : unit -> int

val global : unit -> t
(** The shared context, (re)built lazily at the current default size.

    @raise Failure if its worker domains cannot be started (see
    {!Bp_parallel.Pool.create}); the next call tries again. *)
