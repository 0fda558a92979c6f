(** The run-wide flag surface of [blockplane-cli], the experiment driver:
    every run-wide flag is declared here exactly once, as one Cmdliner
    term evaluating to a {!Bp_harness.Knobs.t} plus the scale and
    worker-domain count.

    Every bad value is a command-line error naming its flag (Cmdliner
    exits 124): non-positive counts, non-finite or out-of-range floats,
    a malformed [BP_BENCH_SCALE], and a batch-cut pair that
    {!Bp_pbft.Config.check_batch_policy} rejects once the hold is
    converted to simulated time. *)

type t = {
  knobs : Bp_harness.Knobs.t;
  scale : float;  (** [-s/--scale], falling back to [BP_BENCH_SCALE] *)
  jobs : int;  (** [-j/--jobs]: worker domains for independent tasks *)
}

val term : t Cmdliner.Term.t
(** The ten knob flags ([--pipeline], [--verify-jobs], [--cluster-send],
    [--load-rate], [--load-trace], [--skew], [--shards],
    [--batch-min-fill], [--batch-hold], [--no-cache]; absent flags keep
    {!Bp_harness.Knobs.default}) plus [--scale] and [--jobs]. *)

val with_pool :
  t -> (Bp_parallel.Pool.t option -> 'a) -> ('a, string) result
(** Run [f] with a pool of [t.jobs] domains ([None] at 1), then shut the
    pool down, whatever [f] does.

    The pool is started before [f] runs. If the runtime cannot host the
    count [--jobs] asks for, the domains already started are joined and
    the result is an error naming that flag ([f] never runs); pass it to
    [Cmdliner.Term.term_result'] to make it a command-line error. *)
