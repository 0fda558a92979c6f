(** The run-wide experiment knobs: one immutable record, built once by
    the executables' shared flag term and passed explicitly from
    {!Experiments.run} through every plan factory down to
    {!Runner.fresh_world} and the Loadgen sweeps. Nothing here is
    global: two runs with different knobs can share a process. *)

type load_shape = [ `Poisson | `Bursty | `Diurnal ]
(** Arrival-process families the load knobs select between (see
    {!Loadgen.process} for their semantics). *)

type t = {
  pipeline : int;
      (** consensus pipeline depth for worlds that don't pick one
          ([--pipeline]); 1 is the stop-and-wait seed. *)
  verify_jobs : int;
      (** modeled verification parallelism for worlds that don't pick
          one ([--verify-jobs]); only observable where [verify_cost] is
          enabled. *)
  cluster_send : bool;
      (** inter-participant path ([--cluster-send]): expected-constant
          cluster-sending when on, fi+1 signature bundles when off. *)
  load_shape : load_shape;
      (** arrival process of Loadgen-driven experiments ([--load-trace]). *)
  load_rate : float option;
      (** when set ([--load-rate]), Loadgen-driven experiments probe this
          single offered rate instead of their built-in sweep. *)
  skew : float;
      (** zipf exponent over the modeled client population ([--skew]);
          0 = uniform. *)
  shards : int;
      (** hash shards for worlds without an explicit shard map
          ([--shards]); clamped to each world's participant count. *)
  batch_min_fill : int option;
      (** batch-cut minimum fill for worlds that don't pick one
          ([--batch-min-fill]); clamped to each world's [batch_max].
          [None] keeps the seed's cut-on-any-signal policy. *)
  batch_hold : Bp_sim.Time.t option;
      (** batch-cut hold window for worlds that don't pick one
          ([--batch-hold]). *)
  cache : bool;
      (** per-node verification/digest memoization ([--no-cache] turns
          it off). Signing is the same either way, so no table moves. *)
}

val default : t
(** The seed configuration: depth 1, one verify job, bundles, Poisson
    arrivals over the stock rate sweep, skew 0.99, one shard and the
    cut-on-any-signal batch policy, caches on. Every golden table is
    recorded under it. *)
