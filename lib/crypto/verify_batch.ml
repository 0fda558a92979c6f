(* Batched signature verification through a per-node cache.

   The receive path presents natural batches of independent checks: the
   fi+1 signatures on a transmission record, the per-operation client
   signatures in a pre-prepare. This module answers such a batch on the
   calling domain, in job order, so the verdict list equals sequential
   verification.

   Two rules fix what a verdict may depend on:

   - Snapshot at submit. Each job's signer is resolved to an immutable
     [Signer.key] snapshot when the batch is submitted; [await] only runs
     [Signer.verify_key] over immutable strings, so keystore changes
     ([sign] rollover, [add_identity]) between submit and await cannot
     move a verdict.

   - Cache partition. The per-node [Verify_cache] is consulted once per
     batch: every job is [probe]d at submit (hits are never computed)
     and computed verdicts are [record]ed at await.

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

(* A job as submit left it: answered by the cache probe, or missed with
   the signer's key snapshot taken at submit ([None]: unknown signer). *)
type slot = Hit of bool | Miss of job * Signer.key option

type handle = {
  h_cache : Verify_cache.t;
  h_slots : slot list;
  mutable h_results : bool list option;
}

let submit ~cache t jobs =
  let keystore = Verify_cache.keystore cache in
  let slots =
    List.map
      (fun ({ signer; msg; signature } as job) ->
        match Verify_cache.probe cache ~signer ~msg ~signature with
        | Some v -> Hit v
        | None -> Miss (job, Signer.snapshot keystore ~signer))
      jobs
  in
  Mutex.protect t.mutex (fun () ->
      t.s_batches <- t.s_batches + 1;
      t.s_jobs <- t.s_jobs + List.length jobs);
  { h_cache = cache; h_slots = slots; h_results = None }

let await h =
  match h.h_results with
  | Some rs -> rs
  | None ->
      let rs =
        List.map
          (function
            | Hit v -> v
            | Miss ({ signer; msg; signature }, key) ->
                let verdict =
                  match key with
                  | None -> false
                  | Some key -> Signer.verify_key key ~msg ~signature
                in
                Verify_cache.record h.h_cache ~signer ~msg ~signature ~verdict;
                verdict)
          h.h_slots
      in
      h.h_results <- Some rs;
      rs

let verify ~cache t jobs = await (submit ~cache t jobs)

let verify_one ~cache t ~signer ~msg ~signature =
  match verify ~cache t [ { signer; msg; signature } ] with
  | [ v ] -> v
  | _ -> false

(* The receive paths (replica, unit node, comm daemon) share one
   context. The benchmark probe ([bench/e2e/probe.ml]) reads its stats,
   so it stays global (R8 allow) until a per-node metrics registry
   replaces them. *)
let global_ctx = create () [@@bplint.allow "R8-harnessglobal"]
let global () = global_ctx
