(** Ablations beyond the paper's figures — each isolates one design
    choice that DESIGN.md calls out:

    - [reads]: the three read strategies of §VI-A (read-1, 2f+1 quorum,
      linearizable) — what each level of read safety costs.
    - [batching]: §VI-C group commit — throughput with and without
      request batching under concurrent load.
    - [signatures]: HMAC-registry vs real hash-based (Lamport/Merkle)
      signatures — the wire-size and CPU cost of full crypto fidelity.
    - [loss]: commit latency under increasing network loss — what the
      reliable-transport layer absorbs.

    Plan decompositions for [Pool.run]: [reads] is one task (its
    three strategies share a populated world); [batching] and
    [signatures] are one task per configuration; [loss] one task per
    rate. Every world comes from {!Runner.fresh_world}; all but
    [reads] pin pipeline depth 8. *)

val reads_plan : scale:float -> Runner.plan
val batching_plan : scale:float -> Runner.plan
val signatures_plan : scale:float -> Runner.plan
val loss_plan : scale:float -> Runner.plan
