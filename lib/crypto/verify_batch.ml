(* Batched, optionally parallel signature verification.

   The receive path presents natural batches of independent checks: the
   fi+1 signatures on a transmission record, the per-operation client
   signatures in a pre-prepare, a run of lamport one-time signatures.
   This module fans such a batch across a [Bp_parallel.Pool] of worker
   domains and joins in index order, so the verdict list — and therefore
   every protocol table downstream — is byte-identical to sequential
   verification at any worker count.

   Determinism and domain-safety rest on two rules:

   - Snapshot at submit. Keyed jobs resolve the signer to an immutable
     [Signer.key] snapshot on the calling domain before anything is
     enqueued; workers only ever run [Signer.verify_key] over immutable
     strings, never touching the keystore's hashtable (which the
     protocol domain keeps mutating via [sign] rollover and
     [add_identity]). The snapshot is taken even on the inline jobs=1
     path, so verdicts cannot depend on the worker count.

   - Cache partition. The per-node [Verify_cache] is consulted exactly
     once per batch on the calling domain: every job is [probe]d before
     fan-out (hits never reach a worker) and computed verdicts are
     [record]ed after the join. Worker domains never see the cache, so
     its mutable state stays single-domain.

   The mutex here guards the global default context and per-context
   stats — this module and lib/parallel are the only places allowed to
   touch multicore primitives (bplint R2-domain). *)

type job =
  | Keyed of { signer : string; msg : string; signature : string }
  | Lamport of {
      key : Lamport.public_key;
      msg : string;
      signature : Lamport.signature;
    }

type stats = {
  batches : int;
  jobs_submitted : int;
  fanned : int;
  cache_hits : int;
  fanned_batches : int;
  occupancy : float;
  hist : int array;
}

(* Batch-size histogram buckets: 1, 2, 3-4, 5-8, 9-16, 17+. *)
let hist_buckets = [| "1"; "2"; "3-4"; "5-8"; "9-16"; "17+" |]

let bucket n =
  if n <= 1 then 0
  else if n = 2 then 1
  else if n <= 4 then 2
  else if n <= 8 then 3
  else if n <= 16 then 4
  else 5

type t = {
  jobs : int;
  pool : Bp_parallel.Pool.t option; (* [Some] iff [jobs > 1] *)
  mutex : Mutex.t; (* guards the stats fields below *)
  mutable s_batches : int;
  mutable s_jobs : int;
  mutable s_fanned : int;
  mutable s_cache_hits : int;
  mutable s_fanned_batches : int;
  mutable s_occ_sum : float;
  s_hist : int array;
}

let create ?(jobs = 1) () =
  let jobs = Stdlib.max 1 jobs in
  {
    jobs;
    pool = (if jobs > 1 then Some (Bp_parallel.Pool.create ~jobs) else None);
    mutex = Mutex.create ();
    s_batches = 0;
    s_jobs = 0;
    s_fanned = 0;
    s_cache_hits = 0;
    s_fanned_batches = 0;
    s_occ_sum = 0.0;
    s_hist = Array.make (Array.length hist_buckets) 0;
  }

let jobs t = t.jobs

let shutdown t =
  match t.pool with None -> () | Some p -> Bp_parallel.Pool.shutdown p

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      batches = t.s_batches;
      jobs_submitted = t.s_jobs;
      fanned = t.s_fanned;
      cache_hits = t.s_cache_hits;
      fanned_batches = t.s_fanned_batches;
      occupancy =
        (if t.s_fanned_batches = 0 then 0.0
         else t.s_occ_sum /. float_of_int t.s_fanned_batches);
      hist = Array.copy t.s_hist;
    }
  in
  Mutex.unlock t.mutex;
  s

let reset_stats t =
  Mutex.lock t.mutex;
  t.s_batches <- 0;
  t.s_jobs <- 0;
  t.s_fanned <- 0;
  t.s_cache_hits <- 0;
  t.s_fanned_batches <- 0;
  t.s_occ_sum <- 0.0;
  Array.fill t.s_hist 0 (Array.length t.s_hist) 0;
  Mutex.unlock t.mutex

type handle = {
  h_ctx : t;
  h_verdicts : bool option array; (* [Some] = resolved by cache probe *)
  h_pending : (int * (string * string * string) option) array;
      (* verdict index + the (signer, msg, signature) to [record] after
         the join (None for lamport jobs / no cache) *)
  h_join : unit -> bool list;
  h_cache : Verify_cache.t option;
  mutable h_results : bool list option;
}

let submit ?cache ~keystore t jobs_list =
  let n = List.length jobs_list in
  let verdicts = Array.make (Stdlib.max 1 n) None in
  let pending = ref [] (* reversed (idx, record-key, thunk) *) in
  let n_hits = ref 0 in
  List.iteri
    (fun i job ->
      match job with
      | Lamport { key; msg; signature } ->
          pending := (i, None, fun () -> Lamport.verify key msg signature) :: !pending
      | Keyed { signer; msg; signature } -> (
          let probed =
            match cache with
            | None -> None
            | Some c -> Verify_cache.probe c ~signer ~msg ~signature
          in
          match probed with
          | Some v ->
              incr n_hits;
              verdicts.(i) <- Some v
          | None ->
              let rkey =
                match cache with
                | None -> None
                | Some _ -> Some (signer, msg, signature)
              in
              let thunk =
                (* Snapshot on the calling domain, before fan-out. The
                   thunk closes over the immutable [key] view only —
                   never the keystore or the cache — which is exactly
                   what bplint R6-domainescape/R7-parpure verify on
                   every build by slicing these thunks out of the
                   [Pool.submit] below. *)
                match Signer.snapshot keystore ~signer with
                | None -> fun () -> false
                | Some key ->
                    fun () -> Signer.verify_key key ~msg ~signature
              in
              pending := (i, rkey, thunk) :: !pending))
    jobs_list;
  let pending = Array.of_list (List.rev !pending) in
  let thunks = Array.to_list (Array.map (fun (_, _, f) -> f) pending) in
  let m = Array.length pending in
  let join =
    match t.pool with
    | Some p when m > 1 ->
        let ph = Bp_parallel.Pool.submit p thunks in
        fun () -> Bp_parallel.Pool.await ph
    | Some _ | None ->
        (* Inline reference path: the thunks run on the awaiting domain,
           deferred so submit/await overlap semantics match. *)
        fun () -> List.map (fun f -> f ()) thunks
  in
  Mutex.lock t.mutex;
  t.s_batches <- t.s_batches + 1;
  t.s_jobs <- t.s_jobs + n;
  t.s_cache_hits <- t.s_cache_hits + !n_hits;
  if n > 0 then t.s_hist.(bucket n) <- t.s_hist.(bucket n) + 1;
  (match t.pool with
  | Some _ when m > 1 ->
      t.s_fanned <- t.s_fanned + m;
      t.s_fanned_batches <- t.s_fanned_batches + 1;
      t.s_occ_sum <-
        t.s_occ_sum +. (float_of_int (Stdlib.min m t.jobs) /. float_of_int t.jobs)
  | Some _ | None -> ());
  Mutex.unlock t.mutex;
  {
    h_ctx = t;
    h_verdicts = verdicts;
    h_pending = Array.map (fun (i, r, _) -> (i, r)) pending;
    h_join = join;
    h_cache = cache;
    h_results = None;
  }

let await h =
  match h.h_results with
  | Some rs -> rs
  | None ->
      let computed = h.h_join () in
      List.iteri
        (fun k v ->
          let i, rkey = h.h_pending.(k) in
          h.h_verdicts.(i) <- Some v;
          (* Record on the calling domain, after the join. *)
          match (rkey, h.h_cache) with
          | Some (signer, msg, signature), Some c ->
              Verify_cache.record c ~signer ~msg ~signature ~verdict:v
          | _ -> ())
        computed;
      let n = Array.length h.h_verdicts in
      let rec collect i acc =
        if i < 0 then acc
        else
          match h.h_verdicts.(i) with
          | Some v -> collect (i - 1) (v :: acc)
          | None -> collect (i - 1) acc
      in
      let rs = collect (n - 1) [] in
      h.h_results <- Some rs;
      rs

let verify ?cache ~keystore t jobs_list =
  await (submit ?cache ~keystore t jobs_list)

let verify_one ?cache ~keystore t ~signer ~msg ~signature =
  match verify ?cache ~keystore t [ Keyed { signer; msg; signature } ] with
  | [ v ] -> v
  | _ -> false

(* ---------- process-global default context ---------- *)

(* The receive paths (replica, unit node, comm daemon) share one
   context sized by [--verify-jobs]; harness worker domains may reach it
   concurrently, hence the mutex. Re-sizing shuts the old pool down and
   builds a fresh one — done at startup / between bench configurations,
   never mid-simulation. The last process-wide switch in lib/crypto: the
   benchmark probe ([bench/e2e/probe.ml]) reads this context's stats, so
   it stays global (R8 allow) until a per-node metrics registry replaces
   them. *)

let default_jobs_ref = ref 1 [@@bplint.allow "R8-harnessglobal"]
let global_ctx = ref None [@@bplint.allow "R8-harnessglobal"]
let global_mutex = Mutex.create ()

let default_jobs () = !default_jobs_ref

let set_default_jobs n =
  let n = Stdlib.max 1 n in
  Mutex.lock global_mutex;
  default_jobs_ref := n;
  (match !global_ctx with
  | Some c when c.jobs <> n ->
      shutdown c;
      global_ctx := None
  | Some _ | None -> ());
  Mutex.unlock global_mutex

let global () =
  Mutex.protect global_mutex (fun () ->
      match !global_ctx with
      | Some c when c.jobs = !default_jobs_ref -> c
      | stale ->
          (match stale with Some c -> shutdown c | None -> ());
          let c = create ~jobs:!default_jobs_ref () in
          global_ctx := Some c;
          c)
