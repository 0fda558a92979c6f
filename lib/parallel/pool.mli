(** A fixed-size pool of worker domains for independent, closed tasks.

    This is the only general-purpose module in the repository allowed to
    touch the multicore primitives ([Domain] / [Mutex] / [Condition] —
    enforced by the bplint R2-domain rule, which also exempts the thin
    [Bp_crypto.Verify_batch] wrapper built on top of this pool): protocol
    and simulator code stays single-domain deterministic, and parallelism
    exists purely at the granularity of closed tasks — a whole seeded
    simulation, or a batch of signature checks over immutable snapshots.
    The pool returns results in task-index order, so a parallel run is
    observationally identical to [List.map (fun f -> f ()) tasks].

    Two entry points share one FIFO of batches:

    - {!run} is the original plan API: enqueue a batch and block until it
      completes.
    - {!submit} / {!await} is the futures API: enqueue a batch, keep the
      handle, and join later — several batches may be outstanding at
      once, which lets callers overlap verification with other work.

    Handles are single-consumer: {!await} from the domain that submitted
    (a second {!await} returns the cached results).

    The task contract — capture only immutable snapshots, never reach
    protocol-domain state (verify cache, keystore, network, RNG, wall
    clock) from inside a task — is not just documentation: bplint's
    interprocedural R6-domainescape and R7-parpure passes check every
    closure passed to {!submit} / {!run} / {!map} against it on each
    build, following calls across modules through a whole-program call
    graph. Audited leaf functions opt in with
    [[@@bplint.parallel_pure]]. *)

type t

val create : jobs:int -> t
(** Spawn a pool of [max 1 jobs] workers. [jobs <= 1] spawns no domains
    at all: {!run} then executes tasks inline on the calling domain, so
    [-j 1] is exactly the pre-pool sequential behaviour.

    @raise Failure if the runtime cannot host [jobs] more domains; the
    workers spawned before the refusal are joined first. *)

val jobs : t -> int
(** The (clamped) parallelism the pool was created with. *)

type 'a handle
(** An outstanding batch: claim it with {!await}. *)

val submit : t -> (unit -> 'a) list -> 'a handle
(** Enqueue a batch without blocking. Tasks are claimed by workers in
    index order (FIFO across batches) and may finish in any order; the
    eventual {!await} merges results by task index. On a pool with
    [jobs <= 1] (or a batch of fewer than two tasks) nothing is
    enqueued: the tasks run inline, deferred until {!await}, preserving
    the sequential reference behaviour exactly.

    @raise Invalid_argument if the pool is shut down. *)

val await : 'a handle -> 'a list
(** Block until the batch completes and return its results in
    task-index order. If a task raised, the first exception (in
    completion order) is re-raised with its backtrace, tasks not yet
    started are abandoned, and already-running tasks finish; the pool
    remains usable for subsequent batches. Awaiting an already-awaited
    handle returns the cached results without re-running anything. *)

val run : t -> (unit -> 'a) list -> 'a list
(** [run t tasks] is [await (submit t tasks)]: execute every task and
    return the results in task-index order, regardless of completion
    order.

    If a task raises, the first exception (in completion order) is
    re-raised in the caller with its backtrace, tasks not yet started
    are abandoned, and already-running tasks are allowed to finish. The
    pool remains usable for subsequent batches.

    @raise Invalid_argument if the pool is shut down. *)

val shutdown : t -> unit
(** Join all workers. Idempotent. The pool cannot run batches after;
    outstanding handles with unstarted work fail their {!await} with
    [Invalid_argument]. *)

val map : jobs:int -> (unit -> 'a) list -> 'a list
(** One-shot convenience: create a pool, {!run} the batch, {!shutdown}
    (also on exception). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [--jobs] default. *)
