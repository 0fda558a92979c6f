(** §VIII-D (Fig. 7) — global consensus: the Replication-phase latency of
    Blockplane-Paxos against plain Paxos, flat geo-PBFT and Hierarchical
    PBFT, with the leader placed at each of the four datacenters. *)

val fig7_plan : scale:float -> Runner.plan
(** One task per (leader, system) cell — 16 independent simulations,
    leader-major. *)
