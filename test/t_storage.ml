open Bp_storage

(* Appends the way a unit node does: with the payload's SHA-256. *)
let append l p = Log_store.append l ~payload_digest:(Bp_crypto.Sha256.digest p) p

let test_log_append_get () =
  let l = Log_store.create () in
  let e0 = append l "first" in
  let e1 = append l "second" in
  Alcotest.(check int) "indices" 0 e0.Log_store.index;
  Alcotest.(check int) "indices" 1 e1.Log_store.index;
  Alcotest.(check int) "length" 2 (Log_store.length l);
  Alcotest.(check (option string)) "get payload" (Some "second")
    (Option.map (fun e -> e.Log_store.payload) (Log_store.get l 1));
  Alcotest.(check (option string)) "out of range" None
    (Option.map (fun e -> e.Log_store.payload) (Log_store.get l 2))

let test_log_chain_digests_prefix () =
  let a = Log_store.create () and b = Log_store.create () in
  List.iter (fun p -> ignore (append a p)) [ "x"; "y"; "z" ];
  List.iter (fun p -> ignore (append b p)) [ "x"; "y" ];
  Alcotest.(check string) "same prefix digest" (Log_store.digest_at a 2)
    (Log_store.last_digest b);
  ignore (append b "DIFFERENT");
  Alcotest.(check bool) "diverged" false
    (String.equal (Log_store.last_digest a) (Log_store.last_digest b))

let test_log_digest_depends_on_order () =
  let a = Log_store.create () and b = Log_store.create () in
  List.iter (fun p -> ignore (append a p)) [ "x"; "y" ];
  List.iter (fun p -> ignore (append b p)) [ "y"; "x" ];
  Alcotest.(check bool) "order sensitive" false
    (String.equal (Log_store.last_digest a) (Log_store.last_digest b))

let test_log_verify_chain_detects_tamper () =
  let l = Log_store.create () in
  List.iter (fun p -> ignore (append l p)) [ "a"; "b"; "c" ];
  Alcotest.(check bool) "clean" true (Log_store.verify_chain l);
  Log_store.tamper l 1 "evil";
  Alcotest.(check bool) "tampered" false (Log_store.verify_chain l)

let test_log_supplied_digest_chain () =
  (* The chain over supplied payload digests is exactly what verify_chain
     recomputes from the payloads: H(prev ‖ H(payload)) from genesis. *)
  let l = Log_store.create () in
  let payloads = [ ""; "a"; String.make 300 'b'; String.make 70_000 'c' ] in
  List.iter (fun p -> ignore (append l p)) payloads;
  Alcotest.(check bool) "verifies" true (Log_store.verify_chain l);
  let expected =
    List.fold_left
      (fun prev p ->
        Bp_crypto.Sha256.digest_list [ prev; Bp_crypto.Sha256.digest p ])
      (Log_store.digest_at l 0) payloads
  in
  Alcotest.(check string) "chain definition"
    (Bp_util.Hex.encode expected)
    (Bp_util.Hex.encode (Log_store.last_digest l))

let test_log_wrong_supplied_digest_caught () =
  let l = Log_store.create () in
  ignore (append l "honest");
  ignore
    (Log_store.append l
       ~payload_digest:(Bp_crypto.Sha256.digest "something else")
       "payload");
  ignore (append l "later");
  Alcotest.(check bool) "wrong digest detected" false (Log_store.verify_chain l)

let test_log_iter_from () =
  let l = Log_store.create () in
  List.iter (fun p -> ignore (append l p)) [ "a"; "b"; "c"; "d" ];
  let seen = ref [] in
  Log_store.iter_from l 2 (fun e -> seen := e.Log_store.payload :: !seen);
  Alcotest.(check (list string)) "suffix" [ "c"; "d" ] (List.rev !seen)

let test_log_growth () =
  let l = Log_store.create () in
  for i = 0 to 999 do
    ignore (append l (string_of_int i))
  done;
  Alcotest.(check int) "length" 1000 (Log_store.length l);
  Alcotest.(check string) "spot check" "577" (Log_store.payload_exn l 577);
  Alcotest.(check bool) "chain intact" true (Log_store.verify_chain l)

(* A crash that lost the last [n] bytes of an image. *)
let truncate_tail image n =
  String.sub image 0 (Int.max 0 (String.length image - n))

let recovered image = fst (Wal.recover image)

let test_wal_roundtrip () =
  let records, discarded = Wal.recover (Wal.image [ "one"; "two"; "three" ]) in
  Alcotest.(check (list string)) "records" [ "one"; "two"; "three" ] records;
  Alcotest.(check int) "nothing discarded" 0 discarded

let test_wal_empty () =
  let records, discarded = Wal.recover "" in
  Alcotest.(check (list string)) "empty" [] records;
  Alcotest.(check int) "none discarded" 0 discarded

let test_wal_torn_tail () =
  let image = Wal.image [ "one"; "two"; "three" ] in
  (* Lose part of the last record. *)
  Alcotest.(check (list string)) "durable prefix" [ "one"; "two" ]
    (recovered (truncate_tail image 2))

let test_wal_corrupt_middle_loses_suffix () =
  let image = Bytes.of_string (Wal.image [ "aaaa"; "bbbb"; "cccc" ]) in
  (* Corrupt a byte inside the second record's payload. *)
  let off = (2 * Bp_codec.Frame.overhead) + 4 + 2 in
  Bytes.set image off (Char.chr (Char.code (Bytes.get image off) lxor 0x40));
  Alcotest.(check (list string)) "prefix before corruption" [ "aaaa" ]
    (recovered (Bytes.to_string image))

let test_wal_total_loss () =
  let image = Wal.image [ "only" ] in
  Alcotest.(check (list string)) "nothing" []
    (recovered (truncate_tail image (String.length image)))

let test_wal_garbage_prefix () =
  let records, discarded = Wal.recover "totally not a wal" in
  Alcotest.(check (list string)) "no records" [] records;
  Alcotest.(check bool) "discards counted" true (discarded > 0)

let qcheck_wal_recovery_prefix =
  QCheck.Test.make ~name:"wal recovery yields a prefix" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 10) (string_of_size Gen.(0 -- 20))) small_nat)
    (fun (recs, cut) ->
      let image = Wal.image recs in
      let recovered =
        recovered (truncate_tail image (cut mod (String.length image + 1)))
      in
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs', y :: ys' -> String.equal x y && is_prefix xs' ys'
        | _ :: _, [] -> false
      in
      is_prefix recovered recs)

(* The image is assembled in one buffer, each CRC computed as its frame
   is written; it must be exactly the concatenation of sealed frames,
   and recovering it must give the records back. *)
let qcheck_wal_image_is_sealed_frames =
  QCheck.Test.make ~name:"wal image = concatenated Frame.seal" ~count:200
    QCheck.(list_of_size Gen.(0 -- 12) (string_of_size Gen.(0 -- 300)))
    (fun recs ->
      let image = Wal.image recs in
      String.equal image (String.concat "" (List.map Bp_codec.Frame.seal recs))
      && Wal.recover image = (recs, 0))

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "storage.log_store",
      [
        tc "append/get" test_log_append_get;
        tc "chain digests prefixes" test_log_chain_digests_prefix;
        tc "digest order-sensitive" test_log_digest_depends_on_order;
        tc "verify detects tamper" test_log_verify_chain_detects_tamper;
        tc "supplied digest = recomputed chain" test_log_supplied_digest_chain;
        tc "wrong supplied digest caught" test_log_wrong_supplied_digest_caught;
        tc "iter_from" test_log_iter_from;
        tc "growth" test_log_growth;
      ] );
    ( "storage.wal",
      [
        tc "roundtrip" test_wal_roundtrip;
        tc "empty image" test_wal_empty;
        tc "torn tail" test_wal_torn_tail;
        tc "corruption loses suffix only" test_wal_corrupt_middle_loses_suffix;
        tc "total loss" test_wal_total_loss;
        tc "garbage prefix" test_wal_garbage_prefix;
        QCheck_alcotest.to_alcotest qcheck_wal_recovery_prefix;
        QCheck_alcotest.to_alcotest qcheck_wal_image_is_sealed_frames;
      ] );
  ]
