(* A read-only view of [Verify_cache]'s batch counters, kept under the
   names the benchmark probe ([bench/e2e/probe.ml]) reads. Batches are
   counted and verified by [Verify_cache.verify_batch]. *)

type t = unit
type stats = Verify_cache.batch_counters = {
  batches : int;
  jobs_submitted : int;
}

let global () = ()
let stats () = Verify_cache.batch_counters ()
