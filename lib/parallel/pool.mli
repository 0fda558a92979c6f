(** Fork-join over worker domains for independent, closed tasks.

    This is the only module in the repository allowed to touch the
    multicore primitives ([Domain] / [Atomic] — enforced by the bplint
    R2-domain rule): protocol and simulator code stays
    single-domain deterministic, and parallelism exists purely at the
    granularity of closed tasks — a whole seeded simulation. {!run}
    returns results in task-index order, so a parallel run is
    observationally identical to [List.map (fun f -> f ()) tasks].

    The tree's one {!run} site is [Bp_harness.Runner.run_plan]. Its task
    contract — a task builds its own world and shares no mutable state
    with another — is checked twice: bplint's R6-planescape rejects a
    task closure that writes a value bound outside it, in every
    structure item that constructs a [Runner.Plan]; and a test renders
    every registered experiment at [~jobs:1] and at [~jobs:2] and
    compares the bytes. *)

val run : jobs:int -> (unit -> 'a) list -> 'a list
(** [run ~jobs tasks] executes every task and returns the results in
    task-index order, regardless of completion order. It spawns
    [min jobs n - 1] helper domains for [n] tasks; the helpers and the
    calling domain claim task indices in increasing order, and [run]
    joins every helper before it returns. At [jobs <= 1], or for fewer
    than two tasks, the tasks run inline on the calling domain and no
    domain is spawned. A helper the runtime refuses to start is not
    retried; the domains already running finish the tasks.

    If a task raises, no new index is claimed, the tasks already running
    finish, and the exception of the lowest failing index is re-raised
    with its backtrace — the one a sequential run would raise. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [--jobs] default. *)
