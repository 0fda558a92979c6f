(** A fixed-size pool of worker domains for independent, closed tasks.

    This is the only general-purpose module in the repository allowed to
    touch the multicore primitives ([Domain] / [Mutex] / [Condition] —
    enforced by the bplint R2-domain rule, which also exempts the stats
    mutex of [Bp_crypto.Verify_batch]): protocol and simulator code stays
    single-domain deterministic, and parallelism exists purely at the
    granularity of closed tasks — a whole seeded simulation. The pool
    returns results in task-index order, so a parallel run is
    observationally identical to [List.map (fun f -> f ()) tasks].

    The task contract — capture only immutable snapshots, never reach
    protocol-domain state (verify cache, keystore, network, RNG, wall
    clock) from inside a task — is not just documentation: bplint's
    interprocedural R6-domainescape and R7-parpure passes check every
    closure passed to {!run} / {!map} against it on each build,
    following calls across modules through a whole-program call graph.
    Audited leaf functions opt in with [[@@bplint.parallel_pure]]. *)

type t

val create : jobs:int -> t
(** Spawn a pool of [max 1 jobs] workers. [jobs <= 1] spawns no domains
    at all: {!run} then executes tasks inline on the calling domain, so
    [-j 1] is exactly the pre-pool sequential behaviour.

    @raise Failure if the runtime cannot host [jobs] more domains; the
    workers spawned before the refusal are joined first. *)

val jobs : t -> int
(** The (clamped) parallelism the pool was created with. *)

val run : t -> (unit -> 'a) list -> 'a list
(** [run t tasks] executes every task and returns the results in
    task-index order, regardless of completion order. It blocks until
    the batch completes. At [jobs <= 1] (or for a batch of fewer than
    two tasks) the tasks run inline on the calling domain.

    If a task raises, the first exception (in completion order) is
    re-raised in the caller with its backtrace, tasks not yet started
    are abandoned, and already-running tasks are allowed to finish. The
    pool remains usable for subsequent batches.

    @raise Invalid_argument if the pool is shut down. *)

val shutdown : t -> unit
(** Join all workers. Idempotent. The pool cannot run batches after. *)

val map : jobs:int -> (unit -> 'a) list -> 'a list
(** One-shot convenience: create a pool, {!run} the batch, {!shutdown}
    (also on exception). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [--jobs] default. *)
