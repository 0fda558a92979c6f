(** The run-wide flag surface of [blockplane-cli], the experiment driver:
    every run-wide flag is declared here exactly once, as one Cmdliner
    term evaluating to a {!Bp_harness.Knobs.t} plus the scale and
    worker-domain count.

    Every bad value is a command-line error naming its flag (Cmdliner
    exits 124): non-positive counts, non-finite or out-of-range floats
    and a malformed [BP_BENCH_SCALE]. *)

type t = {
  knobs : Bp_harness.Knobs.t;
  scale : float;  (** [-s/--scale], falling back to [BP_BENCH_SCALE] *)
  jobs : int;
      (** [-j/--jobs]: domains per experiment, passed to
          {!Bp_parallel.Pool.run}, which caps it at the task count *)
}

val term : t Cmdliner.Term.t
(** The three load-knob flags ([--load-rate], [--load-trace], [--skew];
    absent flags keep {!Bp_harness.Knobs.default}) plus [--scale] and
    [--jobs]. *)
