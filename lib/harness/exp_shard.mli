(** Keyspace-sharding scale-out study (beyond the paper; ROADMAP:
    multi-unit sharding): 1..16 independent Blockplane units at fixed
    per-unit resources — each unit keeps its own 3fi+1 nodes, its own
    datacenter ({!Bp_sim.Topology.tiled} over Table I) and the d8mf16
    batch-cut policy — under open-loop load offered proportionally to
    the shard count ({!Loadgen}, with its multi-key transaction mix
    targeting shards through {!Blockplane.Shard.key_for}).

    Series: 0% / 5% / 20% cross-shard transaction mix (uniform shard
    popularity) plus 5% with zipf(0.99) shard skew. The 0% series is the
    scale-out headline (aggregate throughput at 16 units over the 1-unit
    point); the others price the cross-shard BFT two-phase commit and
    hot-shard contention honestly, including abort downgrades. *)

val plan : knobs:Knobs.t -> scale:float -> Runner.plan
(** One task per (series, shard-count) point — 20 independent worlds.
    A task fails, naming its series and shard count, if any unit still
    holds a staged cross-shard prepare once the load has drained: every
    prepare must be decided. *)
