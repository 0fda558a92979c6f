(** Saturation-scale open-loop load generation.

    Models very large client populations (10^5..10^7) as lightweight
    arrival {e processes} rather than per-client simulation objects: a
    process keeps O(1) state (its rng split and phase position) and at
    most one pending event in the engine heap at any instant, because
    each arrival schedules its successor from inside its own event.
    Besides Poisson arrivals it offers bursty and diurnal-trace rate
    processes and zipfian client/key skew, and reports the
    heap-occupancy telemetry that backs the O(1) claim.

    Determinism: all randomness flows through the [rng] handed to
    {!create} (a per-task split under the harness's per-seed plan
    discipline), so runs are bit-identical for equal seeds at any
    [--jobs]. *)

type process =
  | Poisson of { rate_per_sec : float }
      (** memoryless arrivals at a constant offered rate *)
  | Bursty of { rate_on : float; on_ms : float; off_ms : float }
      (** Markov-modulated on/off: exponential on-phases (mean [on_ms])
          with Poisson arrivals at [rate_on], separated by silent
          exponential off-phases (mean [off_ms]); the long-run offered
          rate is [rate_on * on_ms / (on_ms + off_ms)] *)
  | Diurnal of { base_rate : float; trace : (float * float) array }
      (** piecewise rate trace cycled forever: each [(duration_ms,
          multiplier)] segment offers [base_rate * multiplier] (0
          multiplier = quiet period) — a day-curve compressed into
          simulated time *)

type spec = {
  process : process;
  clients : int;  (** modeled client population *)
  skew : float;
      (** zipf exponent over client ranks; 0 = uniform, ~0.99 = YCSB *)
  count : int;  (** arrivals to generate *)
}

type t
(** A generator: spec + rng + mutable phase state. *)

val create : rng:Bp_util.Rng.t -> spec -> t
(** @raise Invalid_argument on non-positive rates/durations/counts, a
    negative skew, or a diurnal trace with no positive-rate segment. *)

val offered_per_sec : t -> float
(** Long-run mean offered rate implied by the process parameters. *)

val next_gap_ms : t -> float
(** Draw the next inter-arrival gap, advancing phase state. {!run} calls
    it from inside arrival events. *)

val next_client : t -> int
(** Draw the arriving client's rank in [0, clients-1] (zipf when
    [skew > 0], else uniform). *)

(** {1 Multi-key transaction mix}

    Shard targeting for the sharded-deployment experiments: each arrival
    is either a single-shard op or, with probability [cross_fraction], a
    multi-key transaction spanning [txn_keys] distinct shards. Shard
    popularity is zipfian when [shard_skew > 0] (hot-shard contention),
    uniform otherwise. O(1) state, like the arrival processes; all
    randomness flows through the [rng] handed to {!mix}. *)

type mix_spec = {
  shards : int;
  cross_fraction : float;  (** probability an arrival spans shards *)
  txn_keys : int;  (** distinct shards per cross-shard txn (>= 2, capped
                       at [shards]) *)
  shard_skew : float;  (** zipf exponent over shard ranks; 0 = uniform *)
}

type mix

val mix : rng:Bp_util.Rng.t -> mix_spec -> mix
(** @raise Invalid_argument on a non-positive shard count, a
    [cross_fraction] outside [0, 1], [txn_keys < 2] or a negative or
    non-finite [shard_skew]. *)

val draw_targets : mix -> int list
(** The target shards of the next arrival: a singleton for a
    single-shard op, [min txn_keys shards] distinct shards (sorted
    ascending) for a cross-shard transaction. With one shard every draw
    is a singleton. *)

type result = {
  latencies : Bp_util.Stats.t;  (** per-request completion latency, ms *)
  makespan_ms : float;  (** first arrival to last completion *)
  achieved_per_sec : float;  (** completions / makespan *)
  steady_per_sec : float;
      (** completions that land by the last arrival, divided by the
          arrival window (first to last arrival); 0 with one arrival *)
  drain_ms : float;  (** last arrival to last completion *)
  offered_per_sec : float;  (** {!offered_per_sec} of the generator *)
  peak_arrivals_pending : int;
      (** max generator arrivals simultaneously in the heap — 1 by
          construction (the O(1)-occupancy telemetry) *)
  peak_engine_pending : int;
      (** max total engine heap occupancy observed at arrival instants —
          protocol events included; stays workload-bounded instead of
          growing with [count] *)
}

val run :
  Bp_sim.Engine.t ->
  gen:t ->
  submit:(int -> client:int -> on_done:(unit -> unit) -> unit) ->
  result
(** Stream the generator's [count] arrivals into [submit] and drive the
    engine with {!Runner.drive} until every request completes.
    [submit i ~client ~on_done] must eventually call [on_done]. Draw
    order: the first gap at start; then, inside arrival [i], the next
    gap (when a successor exists) followed by [i]'s client. *)
