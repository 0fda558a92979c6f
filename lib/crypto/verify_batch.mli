(** Read-only view of {!Verify_cache.batch_counters}.

    Every batch of signature checks is counted and verified by
    {!Verify_cache.verify_batch}; this module only names its two
    process-global counters the way the benchmark probe
    ([bench/e2e/probe.ml]) reads them. It holds no state and verifies
    nothing, and it goes when the probe reads {!Verify_cache} directly. *)

type t
(** A handle on the process-global batch counters. *)

type stats = Verify_cache.batch_counters = {
  batches : int; (** batches verified *)
  jobs_submitted : int; (** total jobs across all batches *)
}

val global : unit -> t
val stats : t -> stats
