(** Batched signature verification through a per-node cache.

    Accepts a batch of independent registry-keyed
    [(signer, signature, message)] checks and answers them on the
    calling domain, in job order, each through {!Verify_cache.verify}:
    the verdict list is element-wise equal to sequential
    [Verify_cache.verify] / [Signer.verify], and a cache that keeps
    verdicts computes a key repeated inside a batch once. The batch
    shape gives every receive path one place to count its checks.

    The stats mutex makes this module, alongside [lib/parallel], exempt
    from the bplint R2-domain rule: [-j] experiment tasks on different
    domains all count through {!global}. *)

type t
(** A verification context: batch stats. *)

type job = { signer : string; msg : string; signature : string }
(** Verified against the cache's keystore registry, through the cache. *)

val create : unit -> t

val verify : cache:Verify_cache.t -> t -> job list -> bool list
(** Count one batch of [List.length jobs] jobs, then verify each job
    through [cache], in order. Must be called on the domain that owns
    [cache]. A cache that keeps nothing computes every job. *)

val verify_one :
  cache:Verify_cache.t ->
  t ->
  signer:string ->
  msg:string ->
  signature:string ->
  bool
(** A single check, counted as a batch of one. *)

(** {1 Stats} *)

type stats = {
  batches : int; (** batches verified *)
  jobs_submitted : int; (** total jobs across all batches *)
}

val stats : t -> stats
val reset_stats : t -> unit

(** {1 Process-global context} *)

val global : unit -> t
(** The context the receive paths (replica batch validation,
    transmission-record bundles, comm-daemon signature collection)
    share. *)
