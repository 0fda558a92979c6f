(* Batched verification ([Verify_cache.verify_batch]): differential
   tests against the sequential reference.

   The contract under test: for any batch of jobs, [verify_batch] returns
   exactly the verdict list the sequential [Signer.verify] calls would —
   through a full or a zero-capacity [Verify_cache], and across keystore
   generation churn — and counts one batch of every job. *)

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

let build_job ~keystore (code, i) =
  let signer = idents.(abs i mod Array.length idents) in
  let msg = msg_of i in
  match abs code mod 4 with
  | 0 ->
      (* valid registry-keyed signature *)
      { Verify_cache.signer; msg; signature = Signer.sign keystore ~signer msg }
  | 1 ->
      (* tampered signature bytes *)
      {
        Verify_cache.signer;
        msg;
        signature = tamper (Signer.sign keystore ~signer msg);
      }
  | 2 ->
      (* ghost: identity never registered *)
      { Verify_cache.signer = "ghost"; msg; signature = "sig" }
  | _ ->
      (* signed by one identity, claimed by another *)
      let other = idents.((abs i + 1) mod Array.length idents) in
      {
        Verify_cache.signer = other;
        msg;
        signature = Signer.sign keystore ~signer msg;
      }

(* The sequential reference, job by job. *)
let reference ~keystore { Verify_cache.signer; msg; signature } =
  Signer.verify keystore ~signer ~msg ~signature

let scenario_arbitrary =
  QCheck.make
    ~print:(fun (codes, churn) ->
      Printf.sprintf "codes=[%s] churn=%b"
        (String.concat ";" (List.map string_of_int codes))
        churn)
    QCheck.Gen.(pair (list_size (1 -- 8) (int_bound 3)) bool)

let differential_test =
  QCheck.Test.make ~name:"batched = sequential at job level" ~count:40
    scenario_arbitrary (fun (codes, churn) ->
      let keystore = Signer.create (Bp_util.Rng.create 7801L) in
      Array.iter (Signer.add_identity keystore) idents;
      let jobs = List.mapi (fun i code -> build_job ~keystore (code, i)) codes in
      if churn then Signer.add_identity keystore "late-arrival";
      let expected = List.map (reference ~keystore) jobs in
      let plain = Verify_cache.verify_batch (no_cache keystore) jobs in
      (* Same batch twice through one cache, with a generation bump
         between the runs: memoized verdicts must never change a verdict,
         and stale-generation entries must re-verify. *)
      let cache = Verify_cache.create keystore in
      let cached1 = Verify_cache.verify_batch cache jobs in
      Signer.add_identity keystore "churn";
      let cached2 = Verify_cache.verify_batch cache jobs in
      List.equal Bool.equal expected plain
      && List.equal Bool.equal expected cached1
      && List.equal Bool.equal expected cached2)

(* Hash-based scheme: signing consumes one-time keys — the batch path
   must agree with the sequential reference here too. *)
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
        { Verify_cache.signer = "hb-node"; msg = msg_of i; signature })
      sigs
  in
  let expected = List.map (reference ~keystore) jobs in
  Alcotest.(check bool) "tampered rejected" true
    (List.exists not expected && List.exists Fun.id expected);
  Alcotest.(check (list bool)) "hash-based verdicts" expected
    (Verify_cache.verify_batch (no_cache keystore) jobs)

(* A batch runs job by job through the cache: a key repeated inside it
   is computed once, the process-global batch counters grow by one batch
   of every job (a plain [verify] counts no batch), and a keystore
   generation bump between two calls makes the second one verify
   again. *)
let test_repeats_stats_generation () =
  let keystore = Signer.create (Bp_util.Rng.create 7804L) in
  Array.iter (Signer.add_identity keystore) idents;
  let job i =
    let signer = idents.(i mod 3) in
    let msg = msg_of i in
    { Verify_cache.signer; msg; signature = Signer.sign keystore ~signer msg }
  in
  let repeated = job 0 in
  let tampered =
    let j = job 2 in
    { j with Verify_cache.signature = tamper j.Verify_cache.signature }
  in
  let jobs = [ repeated; job 1; tampered; repeated ] in
  let expected = List.map (reference ~keystore) jobs in
  Alcotest.(check (list bool)) "sequential verdicts" [ true; true; false; true ] expected;
  let cache = Verify_cache.create keystore in
  let check_counters ~msg ~hits ~misses =
    let c = Verify_cache.instance_counters cache in
    Alcotest.(check (pair int int)) msg (hits, misses)
      (c.Verify_cache.verify_hits, c.Verify_cache.verify_misses)
  in
  (* Deltas of the process-global counters since [before]. *)
  let batch_delta ~msg before (batches, jobs) =
    let c = Verify_cache.batch_counters () in
    Alcotest.(check (pair int int)) msg (batches, jobs)
      ( c.Verify_cache.batches - before.Verify_cache.batches,
        c.Verify_cache.jobs_submitted - before.Verify_cache.jobs_submitted )
  in
  let before = Verify_cache.batch_counters () in
  Alcotest.(check (list bool)) "batch verdicts" expected
    (Verify_cache.verify_batch cache jobs);
  check_counters ~msg:"repeated key: one miss, then one hit" ~hits:1 ~misses:3;
  batch_delta ~msg:"one batch, every job" before (1, 4);
  let before = Verify_cache.batch_counters () in
  let { Verify_cache.signer; msg; signature } = repeated in
  Alcotest.(check bool) "plain verify" true
    (Verify_cache.verify cache ~signer ~msg ~signature);
  batch_delta ~msg:"a plain verify counts no batch" before (0, 0);
  let before = Verify_cache.batch_counters () in
  Signer.add_identity keystore "between-batches";
  Alcotest.(check (list bool)) "verdicts after the bump" expected
    (Verify_cache.verify_batch cache jobs);
  check_counters ~msg:"stale verdicts verify again" ~hits:3 ~misses:6;
  batch_delta ~msg:"the second batch counts too" before (1, 4)

let suite =
  [
    ( "verify_batch",
      [
        QCheck_alcotest.to_alcotest differential_test;
        Alcotest.test_case "hash-based scheme batches" `Quick
          test_hash_based_batch;
        Alcotest.test_case "repeated keys, stats and generation" `Quick
          test_repeats_stats_generation;
      ] );
  ]
