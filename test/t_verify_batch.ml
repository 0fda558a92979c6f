(* Batched verification (lib/crypto/verify_batch): differential tests
   against the sequential reference and jobs-invariance of experiment
   output.

   The contract under test: for any batch of jobs, [Verify_batch.verify]
   returns exactly the verdict list the sequential [Signer.verify] /
   [Lamport.verify] calls would — at any worker count, through a full
   or a zero-capacity [Verify_cache], and across keystore generation
   churn. *)

open Bp_crypto

(* A cache that keeps nothing: every keyed job is computed. *)
let no_cache keystore = Verify_cache.create ~capacity:0 ~digest_budget:0 keystore

let idents = [| "node-0"; "node-1"; "node-2" |]

(* A job spec is an int code plus an index: everything about the job is
   derived deterministically so qcheck only has to generate small ints. *)
let msg_of i = Printf.sprintf "payload-%d;" i

(* Flip one byte in the middle of the signature: for hash-based
   signatures the leading bytes are structural header, so byte 0 is not
   guaranteed to be load-bearing — the midpoint always is. *)
let tamper s = if String.length s = 0 then "x" else
  let k = String.length s / 2 in
  String.mapi (fun i c -> if i = k then Char.chr (Char.code c lxor 1) else c) s

let build_job ~keystore ~rng (code, i) =
  let signer = idents.(abs i mod Array.length idents) in
  let msg = msg_of i in
  match abs code mod 6 with
  | 0 ->
      (* valid registry-keyed signature *)
      Verify_batch.Keyed
        { signer; msg; signature = Signer.sign keystore ~signer msg }
  | 1 ->
      (* tampered signature bytes *)
      Verify_batch.Keyed
        { signer; msg; signature = tamper (Signer.sign keystore ~signer msg) }
  | 2 ->
      (* ghost: identity never registered *)
      Verify_batch.Keyed { signer = "ghost"; msg; signature = "sig" }
  | 3 ->
      (* signed by one identity, claimed by another *)
      let other = idents.((abs i + 1) mod Array.length idents) in
      Verify_batch.Keyed
        { signer = other; msg; signature = Signer.sign keystore ~signer msg }
  | 4 ->
      (* valid lamport one-time signature *)
      let sk, pk = Lamport.keygen rng in
      Verify_batch.Lamport { key = pk; msg; signature = Lamport.sign sk msg }
  | _ ->
      (* lamport signature over a different message *)
      let sk, pk = Lamport.keygen rng in
      Verify_batch.Lamport
        { key = pk; msg; signature = Lamport.sign sk (msg ^ "!") }

(* The sequential reference, job by job on the calling domain. *)
let reference ~keystore job =
  match job with
  | Verify_batch.Keyed { signer; msg; signature } ->
      Signer.verify keystore ~signer ~msg ~signature
  | Verify_batch.Lamport { key; msg; signature } ->
      Lamport.verify key msg signature

let scenario_arbitrary =
  QCheck.make
    ~print:(fun (codes, churn) ->
      Printf.sprintf "codes=[%s] churn=%b"
        (String.concat ";" (List.map string_of_int codes))
        churn)
    QCheck.Gen.(pair (list_size (1 -- 8) (int_bound 5)) bool)

let differential_test =
  QCheck.Test.make ~name:"batched = sequential at jobs 1/2/4" ~count:40
    scenario_arbitrary (fun (codes, churn) ->
      let keystore = Signer.create (Bp_util.Rng.create 7801L) in
      Array.iter (Signer.add_identity keystore) idents;
      let rng = Bp_util.Rng.create 7802L in
      let jobs = List.mapi (fun i code -> build_job ~keystore ~rng (code, i)) codes in
      if churn then Signer.add_identity keystore "late-arrival";
      let expected = List.map (reference ~keystore) jobs in
      List.for_all
        (fun n ->
          let ctx = Verify_batch.create ~jobs:n () in
          let plain = Verify_batch.verify ~cache:(no_cache keystore) ctx jobs in
          (* Same batch twice through one cache, with a generation bump
             between the runs: memoized verdicts must never change a
             verdict, and stale-generation entries must re-verify. *)
          let cache = Verify_cache.create keystore in
          let cached1 = Verify_batch.verify ~cache ctx jobs in
          Signer.add_identity keystore (Printf.sprintf "churn-%d" n);
          let cached2 = Verify_batch.verify ~cache ctx jobs in
          Verify_batch.shutdown ctx;
          List.equal Bool.equal expected plain
          && List.equal Bool.equal expected cached1
          && List.equal Bool.equal expected cached2)
        [ 1; 2; 4 ])

(* Hash-based scheme: snapshots carry root lists (not HMAC secrets), and
   signing consumes one-time keys — the batch path must agree with the
   sequential reference here too. *)
let test_hash_based_batch () =
  let keystore = Signer.create ~scheme:`Hash_based (Bp_util.Rng.create 7803L) in
  Signer.add_identity keystore "hb-node";
  let sigs =
    List.init 6 (fun i -> Signer.sign keystore ~signer:"hb-node" (msg_of i))
  in
  let jobs =
    List.mapi
      (fun i signature ->
        let signature = if i mod 3 = 2 then tamper signature else signature in
        Verify_batch.Keyed { signer = "hb-node"; msg = msg_of i; signature })
      sigs
  in
  let expected = List.map (reference ~keystore) jobs in
  Alcotest.(check bool) "tampered rejected" true
    (List.exists not expected && List.exists Fun.id expected);
  List.iter
    (fun n ->
      let ctx = Verify_batch.create ~jobs:n () in
      Alcotest.(check (list bool))
        (Printf.sprintf "hash-based verdicts at jobs %d" n)
        expected
        (Verify_batch.verify ~cache:(no_cache keystore) ctx jobs);
      Verify_batch.shutdown ctx)
    [ 1; 4 ]

(* Submitted batches may be awaited late (the replica's preverify path
   overlaps head-slot execution); verdicts and stats must not care. *)
let test_submit_overlap_and_stats () =
  let keystore = Signer.create (Bp_util.Rng.create 7804L) in
  Array.iter (Signer.add_identity keystore) idents;
  let jobs =
    List.init 9 (fun i ->
        let signer = idents.(i mod 3) in
        let s = Signer.sign keystore ~signer (msg_of i) in
        Verify_batch.Keyed
          { signer; msg = msg_of i; signature = (if i = 4 then tamper s else s) })
  in
  let expected = List.map (reference ~keystore) jobs in
  let ctx = Verify_batch.create ~jobs:2 () in
  let cache = Verify_cache.create keystore in
  let h1 = Verify_batch.submit ~cache ctx jobs in
  let h2 = Verify_batch.submit ~cache ctx jobs in
  Alcotest.(check (list bool)) "h2 verdicts" expected (Verify_batch.await h2);
  Alcotest.(check (list bool)) "h1 verdicts" expected (Verify_batch.await h1);
  Alcotest.(check (list bool)) "await idempotent" expected
    (Verify_batch.await h1);
  let s = Verify_batch.stats ctx in
  Alcotest.(check int) "batches" 2 s.Verify_batch.batches;
  Alcotest.(check int) "jobs submitted" 18 s.Verify_batch.jobs_submitted;
  Alcotest.(check bool) "occupancy in (0,1]" true
    (s.Verify_batch.occupancy > 0.0 && s.Verify_batch.occupancy <= 1.0);
  Alcotest.(check int) "histogram counts batches" 2
    (Array.fold_left ( + ) 0 s.Verify_batch.hist);
  Verify_batch.reset_stats ctx;
  Alcotest.(check int) "stats reset" 0 (Verify_batch.stats ctx).Verify_batch.batches;
  Verify_batch.shutdown ctx

(* The global context behind the receive paths: resizing it must leave
   experiment bytes untouched, because the golden experiments charge no
   simulated verification time and verdicts are jobs-invariant. *)
let test_fig4_bytes_jobs_invariant () =
  let render_all reports =
    String.concat "" (List.map Bp_harness.Report.render reports)
  in
  Verify_batch.set_default_jobs 1;
  let at_one = render_all (Bp_harness.Exp_local.fig4 ~scale:0.1 ()) in
  Fun.protect
    ~finally:(fun () -> Verify_batch.set_default_jobs 1)
    (fun () ->
      Verify_batch.set_default_jobs 4;
      let at_four = render_all (Bp_harness.Exp_local.fig4 ~scale:0.1 ()) in
      Alcotest.(check string) "fig4 bytes identical at verify jobs 1 vs 4"
        at_one at_four)

let suite =
  [
    ( "verify_batch",
      [
        QCheck_alcotest.to_alcotest differential_test;
        Alcotest.test_case "hash-based scheme batches" `Quick
          test_hash_based_batch;
        Alcotest.test_case "overlapped submits + stats" `Quick
          test_submit_overlap_and_stats;
        Alcotest.test_case "fig4 bytes invariant to verify jobs" `Quick
          test_fig4_bytes_jobs_invariant;
      ] );
  ]
