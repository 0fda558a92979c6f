(** Saturation sweep (beyond the paper): open-loop offered rate x
    consensus pipeline depth, driven by {!Loadgen}'s streaming arrival
    processes over a zipf-skewed 200k-client modeled population.

    For each series (depths 1/2/4/8 under the seed's cut-on-any-signal
    batch policy, plus depth 8 under the min-fill/hold adaptive policy)
    the sweep reports achieved throughput and p50/p95/p99 latency at
    each offered rate, the mean batch fill the cut policy achieved and
    mean pipeline occupancy. The table's first note defines the
    {e saturation knee}: the highest offered rate whose p99 still meets
    the SLO. *)

val plan : knobs:Knobs.t -> scale:float -> Runner.plan
(** One task per (series, rate) point — 25 independent worlds. *)
