(* Batched signature verification through a per-node cache.

   The receive path presents natural batches of independent checks: the
   fi+1 signatures on a transmission record, the per-operation client
   signatures in a pre-prepare. This module answers such a batch on the
   calling domain, one job after another through the per-node
   [Verify_cache], so the verdict list is the sequential one, and a
   cache that keeps verdicts computes a key repeated inside a batch
   once.

   The mutex guards the stats: [-j] experiment tasks on several domains
   all count through the global context. It is why this module and
   lib/parallel are the only places allowed to touch multicore
   primitives (bplint R2-domain). *)

type job = { signer : string; msg : string; signature : string }
type stats = { batches : int; jobs_submitted : int }

type t = {
  mutex : Mutex.t; (* guards the stats fields below *)
  mutable s_batches : int;
  mutable s_jobs : int;
}

let create () = { mutex = Mutex.create (); s_batches = 0; s_jobs = 0 }

let stats t =
  Mutex.protect t.mutex (fun () ->
      { batches = t.s_batches; jobs_submitted = t.s_jobs })

let reset_stats t =
  Mutex.protect t.mutex (fun () ->
      t.s_batches <- 0;
      t.s_jobs <- 0)

let count t jobs =
  Mutex.protect t.mutex (fun () ->
      t.s_batches <- t.s_batches + 1;
      t.s_jobs <- t.s_jobs + jobs)

let verify ~cache t jobs =
  count t (List.length jobs);
  List.map
    (fun { signer; msg; signature } ->
      Verify_cache.verify cache ~signer ~msg ~signature)
    jobs

let verify_one ~cache t ~signer ~msg ~signature =
  count t 1;
  Verify_cache.verify cache ~signer ~msg ~signature

(* The receive paths (replica, unit node, comm daemon) share one
   context. The benchmark probe ([bench/e2e/probe.ml]) reads its stats,
   so it stays global (R8 allow) until a per-node metrics registry
   replaces them. *)
let global_ctx = create () [@@bplint.allow "R8-harnessglobal"]
let global () = global_ctx
