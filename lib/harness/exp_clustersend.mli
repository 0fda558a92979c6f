(** ablation-clustersend: expected-constant byzantine cluster-sending
    ({!Blockplane.Cluster_send}) against the fi+1-signature-bundle
    baseline, swept over unit size n = 3fi+1 (4/7/10/13) under clean,
    lossy, and byzantine-withholding networks. Reports throughput,
    latency percentiles, WAN messages and kilobytes per delivered
    record, and signature verifications per delivered record; the merge
    adds cluster-vs-bundle ratio metrics per (n, scenario) cell. *)

val plan : knobs:Knobs.t -> scale:float -> Runner.plan
(** One task per (mode, n, scenario) cell, each a {!Runner.fresh_world}
    with [knobs] at pipeline depth 8. *)
