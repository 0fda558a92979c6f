(** §VIII-A — local commitment performance.

    Fig. 4(a)/(b): latency and throughput of [log-commit] while varying
    the batch size (single datacenter, fi = 1).
    Table II: the same at 100 KB while varying the unit size
    n ∈ {4, 7, 10, 13} (fi 1..4). *)

val fig4_plan : scale:float -> Runner.plan
(** One task per batch size; merges into the fig4a (latency) and fig4b
    (throughput) reports. *)

val table2_plan : scale:float -> Runner.plan
(** One task per unit size (fi 1..4). *)

val pipeline_plan : scale:float -> Runner.plan
(** Pipeline ablation (beyond the paper): closed-loop 100 KB commits
    with [batch_max = 1] over pipeline depths 1/2/4/8, one task per
    depth. Depth 1 reproduces the stop-and-wait baseline; the rows carry
    throughput, the speedup vs depth 1, mean and p95 latency and mean
    pipeline occupancy. *)
