(** Workload generators.

    {!Runner.sequential} drives closed-loop (one-at-a-time) workloads —
    what the paper's latency experiments use. This module adds an
    open-loop generator: arrivals follow a Poisson process at a fixed
    offered rate, regardless of completions, which is what exposes
    queueing behaviour and the saturation knee of group commit. *)

type result = {
  latencies : Bp_util.Stats.t;  (** per-request completion latency, ms *)
  makespan_ms : float;  (** first arrival to last completion *)
  achieved_per_sec : float;  (** completions / makespan *)
}

val open_loop :
  Bp_sim.Engine.t ->
  rng:Bp_util.Rng.t ->
  rate_per_sec:float ->
  count:int ->
  submit:(int -> on_done:(unit -> unit) -> unit) ->
  result
(** Schedule [count] arrivals with exponential inter-arrival times at the
    given rate; [submit i ~on_done] fires each request and must call
    [on_done] at completion. Drives the engine with {!Runner.drive}
    until all requests complete.

    Arrivals are streamed: each arrival event schedules its successor
    (drawing the next gap from [rng]) before submitting, so the event
    heap holds at most one pending arrival regardless of [count] — the
    same O(1)-per-process discipline as {!Loadgen}, and the same gap
    sequence (hence byte-identical results) as the former eager
    pre-scheduling loop for equal seeds. *)
