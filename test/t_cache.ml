(* Differential pinning of Bp_crypto.Verify_cache: a cache is a memo, not
   an oracle, so every answer it gives must be bit-identical to the
   uncached computation — across hits, tampered signatures, unknown
   identities, eviction churn, keystore generation bumps, zero-capacity
   caches, and both signing payloads (content-addressed and plain). *)

open Bp_crypto

let ids = Array.init 8 (fun i -> Printf.sprintf "cache/id%d" i)

let make_keystore ?scheme () =
  let ks = Signer.create ?scheme (Bp_util.Rng.create 42L) in
  Array.iter (Signer.add_identity ks) ids;
  ks

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b (i mod Bytes.length b)
    (Char.chr (Char.code (Bytes.get b (i mod Bytes.length b)) lxor 1));
  Bytes.to_string b

(* Replay a random trace of verifications — valid, tampered, misattributed
   to another signer, and against an unknown identity — through a tiny
   cache (capacity 4, so eviction churns constantly) and require the
   memoized verdict to equal the raw one at every single step. *)
let diff_verify_test ?(capacity = 4) ~name ~scheme () =
  let ks = make_keystore ~scheme () in
  let msgs = Array.init 6 (fun i -> Printf.sprintf "message payload %d" i) in
  let sigs =
    Array.map
      (fun id -> Array.map (fun m -> Signer.sign ks ~signer:id m) msgs)
      ids
  in
  let cache = Verify_cache.create ~capacity ks in
  QCheck.Test.make ~name ~count:200
    QCheck.(
      small_list (quad (int_bound 9) (int_bound 5) (int_bound 5) (int_bound 33)))
    (fun ops ->
      List.for_all
        (fun (who, m, signed_m, tamper) ->
          let signer =
            if who >= Array.length ids then "cache/ghost"
            else ids.(who)
          in
          let signature =
            let base = sigs.(who mod Array.length ids).(signed_m) in
            if tamper < 32 then flip_byte base tamper else base
          in
          let msg = msgs.(m) in
          let cached = Verify_cache.verify cache ~signer ~msg ~signature in
          let raw = Signer.verify ks ~signer ~msg ~signature in
          cached = raw)
        ops)

(* Model check of the flat verdict table against the original
   Hashtbl-and-ring implementation ([Verify_cache_ref]): random sequences
   of [verify], [probe], [record] and [sign] calls, with keystore
   generation bumps mixed in, must give the same verdicts and the same
   hit/miss counts after every single step. The signature pool is small
   (valid tags, tampered tags and the all-zero forged tag under every
   signer), so keys collide in the index and entries are refreshed in
   place; capacities 1, 2 and 17 evict constantly, 4096 grows the slot
   arrays without evicting, and 0 keeps nothing. *)
let model_test ~capacity =
  let msgs = Array.init 6 (fun i -> Printf.sprintf "model message %d" i) in
  let zero_tag = String.make 32 '\x00' in
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "verdict cache = reference model (capacity %d)" capacity)
    QCheck.(
      list_of_size Gen.(0 -- 300)
        (quad (int_bound 9) (int_bound 8) (int_bound 5) (int_bound 55)))
    (fun ops ->
      let ks = make_keystore () in
      let sigs =
        Array.map
          (fun id -> Array.map (fun m -> Signer.sign ks ~signer:id m) msgs)
          ids
      in
      let signature_of c =
        if c < 48 then sigs.(c / 6).(c mod 6)
        else if c < 52 then zero_tag
        else flip_byte sigs.(c - 52).(0) c
      in
      let cache = Verify_cache.create ~capacity ks in
      let model = Verify_cache_ref.create ~capacity ks in
      let bumps = ref 0 in
      List.for_all
        (fun (kind, who, m, c) ->
          let signer = if who < Array.length ids then ids.(who) else "cache/ghost" in
          let msg = msgs.(m) and signature = signature_of c in
          let same =
            match kind with
            | 0 | 1 | 2 | 3 ->
                Verify_cache.verify cache ~signer ~msg ~signature
                = Verify_cache_ref.verify model ~signer ~msg ~signature
            | 4 | 5 ->
                Verify_cache.probe cache ~signer ~msg ~signature
                = Verify_cache_ref.probe model ~signer ~msg ~signature
            | 6 ->
                let verdict = c mod 2 = 0 in
                Verify_cache.record cache ~signer ~msg ~signature ~verdict;
                Verify_cache_ref.record model ~signer ~msg ~signature ~verdict;
                true
            | 7 | 8 ->
                let signer = ids.(who mod Array.length ids) in
                String.equal
                  (Verify_cache.sign cache ~signer msg)
                  (Verify_cache_ref.sign model ~signer msg)
            | _ ->
                incr bumps;
                Signer.add_identity ks (Printf.sprintf "cache/bump%d" !bumps);
                true
          in
          let c = Verify_cache.instance_counters cache in
          same
          && c.Verify_cache.verify_hits = Verify_cache_ref.hits model
          && c.Verify_cache.verify_misses = Verify_cache_ref.misses model)
        ops)

(* The soundness invariant, observed through the counters: provisioning an
   identity bumps the keystore generation, after which a previously cached
   verdict must be recomputed (miss), not replayed. *)
let test_generation_invalidation () =
  let ks = make_keystore () in
  let cache = Verify_cache.create ks in
  let msg = "generation test" in
  let signature = Signer.sign ks ~signer:ids.(0) msg in
  Verify_cache.reset_counters ();
  let v1 = Verify_cache.verify cache ~signer:ids.(0) ~msg ~signature in
  let v2 = Verify_cache.verify cache ~signer:ids.(0) ~msg ~signature in
  Alcotest.(check bool) "valid" true (v1 && v2);
  let c = Verify_cache.counters () in
  Alcotest.(check int) "one miss" 1 c.Verify_cache.verify_misses;
  Alcotest.(check int) "one hit" 1 c.Verify_cache.verify_hits;
  Signer.add_identity ks "cache/late-arrival";
  let v3 = Verify_cache.verify cache ~signer:ids.(0) ~msg ~signature in
  Alcotest.(check bool) "still valid" true v3;
  let c = Verify_cache.counters () in
  Alcotest.(check int) "stale entry recomputed" 2 c.Verify_cache.verify_misses

(* Signing through the cache seeds the (known-true) verdict: the signer's
   own envelope verifies without ever running the verifier. *)
let test_sign_seeds_cache () =
  let ks = make_keystore () in
  let cache = Verify_cache.create ks in
  let msg = "self-signed" in
  let signature = Verify_cache.sign cache ~signer:ids.(1) msg in
  Verify_cache.reset_counters ();
  Alcotest.(check bool) "verifies" true
    (Verify_cache.verify cache ~signer:ids.(1) ~msg ~signature);
  let c = Verify_cache.counters () in
  Alcotest.(check int) "pure hit" 1 c.Verify_cache.verify_hits;
  Alcotest.(check int) "no miss" 0 c.Verify_cache.verify_misses;
  (* The seeded verdict is exact, not optimistic: the same signature under
     a different message must fail. *)
  Alcotest.(check bool) "tampered message rejected" false
    (Verify_cache.verify cache ~signer:ids.(1) ~msg:"other" ~signature)

(* What [Deployment.create ~cache:false] builds: a cache with zero
   capacity and digest budget keeps nothing. Every verify and every
   memo-sized digest is a counted miss, and signing seeds no verdict. *)
let test_zero_capacity_cache () =
  let ks = make_keystore () in
  let cache = Verify_cache.create ~capacity:0 ~digest_budget:0 ks in
  let msg = "zero capacity" in
  let signature = Verify_cache.sign cache ~signer:ids.(2) msg in
  let big = String.make 1000 'z' in
  for _ = 1 to 2 do
    Alcotest.(check bool) "verifies" true
      (Verify_cache.verify cache ~signer:ids.(2) ~msg ~signature);
    Alcotest.(check string) "digest" (Sha256.digest big)
      (Verify_cache.digest cache big)
  done;
  Alcotest.(check bool) "probe never hits" true
    (Verify_cache.probe cache ~signer:ids.(2) ~msg ~signature = None);
  let c = Verify_cache.instance_counters cache in
  Alcotest.(check int) "no verify hit" 0 c.Verify_cache.verify_hits;
  Alcotest.(check int) "every verify a miss" 3 c.Verify_cache.verify_misses;
  Alcotest.(check int) "no digest hit" 0 c.Verify_cache.digest_hits;
  Alcotest.(check int) "every digest a miss" 2 c.Verify_cache.digest_misses

(* Digest memo: always equals Sha256.digest, including under a byte budget
   small enough to evict on nearly every insertion, and for re-allocated
   copies of the same content (the content probe, not just physical
   identity). *)
let diff_digest_test =
  let ks = make_keystore () in
  let cache = Verify_cache.create ~digest_budget:1024 ks in
  QCheck.Test.make ~name:"digest memo = Sha256.digest (budget churn)"
    ~count:300
    QCheck.(string_of_size Gen.(0 -- 400))
    (fun s ->
      let d1 = Verify_cache.digest cache s in
      let copy = String.concat "" [ s; "" ] in
      let d2 = Verify_cache.digest cache copy in
      String.equal d1 (Sha256.digest s) && String.equal d2 d1)

(* The read-only lookup returns the memoized digest when there is one and
   hashes otherwise; either way it inserts nothing and counts nothing. *)
let diff_lookup_digest_test =
  let ks = make_keystore () in
  let cache = Verify_cache.create ks in
  QCheck.Test.make ~name:"lookup_digest = Sha256.digest, counters untouched"
    ~count:200
    QCheck.(pair bool (string_of_size Gen.(0 -- 600)))
    (fun (seeded, s) ->
      if seeded then ignore (Verify_cache.digest cache s);
      let before = Verify_cache.instance_counters cache in
      let d = Verify_cache.lookup_digest cache (String.concat "" [ s; "" ]) in
      let uncounted = Verify_cache.instance_counters cache = before in
      (* Nothing was inserted: the memo still misses on content it lacked. *)
      let still_missing =
        seeded
        || String.length s < 256
        || begin
             ignore (Verify_cache.digest cache s);
             (Verify_cache.instance_counters cache).Verify_cache.digest_misses
             > before.Verify_cache.digest_misses
           end
      in
      String.equal d (Sha256.digest s) && uncounted && still_missing)

let mk_batch ops =
  List.mapi
    (fun i op ->
      {
        Bp_pbft.Msg.client = Bp_sim.Addr.make ~dc:0 ~idx:i;
        ts = i;
        kind = i land 3;
        op;
        client_sig = String.make 32 (Char.chr (65 + (i land 7)));
        decoded = Bp_pbft.Msg.Not_decoded;
      })
    ops

(* Batch digest: the cache-assisted form and the form through a
   zero-capacity cache must produce the same bytes for the same batch. *)
let diff_batch_digest_test =
  let ks = make_keystore () in
  let cache = Verify_cache.create ks in
  let empty = Verify_cache.create ~capacity:0 ~digest_budget:0 ks in
  QCheck.Test.make ~name:"memoized batch digest = Msg.batch_digest" ~count:200
    QCheck.(small_list (string_of_size Gen.(0 -- 200)))
    (fun ops ->
      let batch = mk_batch ops in
      let direct = Bp_pbft.Msg.batch_digest ~cache:empty batch in
      let cached = Bp_pbft.Msg.batch_digest ~cache batch in
      String.equal direct cached)

(* CRC32 combination (used to seal broadcast frames without re-scanning
   the shared payload once per destination) against the direct scan and
   the table-free bitwise oracle. Suffix lengths cover the empty suffix,
   single bytes, the 64-byte and 4 KiB boundaries, and random sizes up to
   1 MiB; a third string checks that combining is associative. *)
let combine_suffix_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0; 1; 63; 64; 65; 4095; 4096 ];
        0 -- 4096;
        0 -- 1_048_576;
      ]
    >>= fun len -> string_size (return len))

let diff_crc_combine_test =
  QCheck.Test.make ~name:"Crc32.combine = crc of concatenation (suffixes to 1 MiB)"
    ~count:60
    (QCheck.make
       QCheck.Gen.(
         triple (string_size (0 -- 300)) combine_suffix_gen
           (string_size (0 -- 300))))
    (fun (a, b, c) ->
      let ca = Crc32.string a and cb = Crc32.string b and cc = Crc32.string c in
      let lb = String.length b and lc = String.length c in
      let combined = Crc32.combine ca cb lb in
      let three_way = Crc32.string (a ^ b ^ c) in
      Int32.equal combined (Crc32.string (a ^ b))
      && Int32.equal combined (T_crypto.crc32_bitwise (a ^ b))
      && Int32.equal (Crc32.combine combined cc lc) three_way
      && Int32.equal (Crc32.combine ca (Crc32.combine cb cc lc) (lb + lc)) three_way)

(* An empty suffix is the identity; a negative length is a caller bug and
   raises, like a bad range passed to [Crc32.update]. *)
let test_crc_combine_edges () =
  let c = Crc32.string "prefix" in
  Alcotest.(check int32) "len2 = 0 is the identity" c (Crc32.combine c 0l 0);
  Alcotest.check_raises "negative length" (Invalid_argument "Crc32.combine")
    (fun () -> ignore (Crc32.combine c c (-1)))

(* A broadcast computes its suffix's shift once and stitches every
   destination's frame with it. One shift, reused across prefixes of
   several lengths, must give the checksum of each concatenation, and
   [Frame.seal_with_suffix] must emit the very frame [Frame.seal] builds
   from the concatenated payload. *)
let test_crc_shift_reuse () =
  let prefixes =
    [ ""; "\001"; "\001\007"; String.make 63 'p'; String.init 300 (fun i -> Char.chr (i land 0xff)) ]
  in
  let enc = Bp_codec.Wire.encoder () in
  List.iter
    (fun len ->
      let suffix = String.init len (fun i -> Char.chr (((i * 131) + len) land 0xff)) in
      let suffix_crc = Crc32.string suffix and suffix_shift = Crc32.shift len in
      List.iter
        (fun prefix ->
          let label what =
            Printf.sprintf "%d-byte prefix, %d-byte suffix: %s" (String.length prefix) len what
          in
          Alcotest.(check int32) (label "checksum")
            (Crc32.string (prefix ^ suffix))
            (Crc32.combine_shift (Crc32.string prefix) suffix_crc suffix_shift);
          Alcotest.(check string) (label "frame")
            (Bp_codec.Frame.seal (prefix ^ suffix))
            (Bp_codec.Frame.seal_with_suffix enc ~suffix ~suffix_crc ~suffix_shift
               (fun e -> Bp_codec.Wire.fixed e prefix)))
        prefixes)
    [ 0; 1; 63; 64; 4095; 65536 ];
  Alcotest.check_raises "negative length" (Invalid_argument "Crc32.shift")
    (fun () -> ignore (Crc32.shift (-1)))

(* Envelopes round-trip under both signing payloads, for every bulky
   body: content lighter than the 256-byte cutoff signs its plain
   encoding, heavier content its content-addressed image (op sizes 16
   and 255 sit below it, 256 and 4096 at or above). Which payload is
   signed depends on the message alone, so a full cache and a
   zero-capacity cache seal byte-identical envelopes, each verifies the
   other's, and both give the same batch digest. *)
let test_envelope_both_payloads () =
  let module M = Bp_pbft.Msg in
  let ks = make_keystore () in
  let nodes = Array.init 4 (fun i -> Bp_sim.Addr.make ~dc:0 ~idx:i) in
  let cfg = Bp_pbft.Config.make ~nodes ~keystore:ks () in
  let full = Verify_cache.create ks in
  let empty = Verify_cache.create ~capacity:0 ~digest_budget:0 ks in
  let verifies cache sealed body =
    match M.verify_envelope ~cache cfg sealed with
    | Ok b -> b = body
    | Error _ -> false
  in
  List.iter
    (fun size ->
      let label what = Printf.sprintf "%d-byte op: %s" size what in
      let op = String.init size (fun i -> Char.chr (i land 0xff)) in
      let request =
        M.make_request ~cache:full cfg ~client:nodes.(1) ~ts:1 ~kind:0 ~op
      in
      Alcotest.(check bool) (label "request valid (cached)") true
        (M.request_valid ~cache:full cfg request);
      Alcotest.(check bool) (label "request valid (zero-capacity cache)") true
        (M.request_valid ~cache:empty cfg request);
      let batch = [ request ] in
      let digest = M.batch_digest ~cache:full batch in
      Alcotest.(check string) (label "same batch digest under both caches")
        digest
        (M.batch_digest ~cache:empty batch);
      let view_change =
        M.View_change
          {
            new_view = 1;
            stable_seq = 0;
            stable_digest = "";
            prepared =
              [
                {
                  M.pview = 0;
                  pseq = 1;
                  pdigest = digest;
                  pbatch = batch;
                  prepare_sigs = [ (2, "sig") ];
                };
              ];
            vc_replica = 3;
          }
      in
      (* (name, the sender the body names, body) *)
      let bodies =
        [
          ("Request", nodes.(1), M.Request request);
          ("Pre_prepare", nodes.(0), M.Pre_prepare { view = 0; seq = 1; digest; batch });
          ("View_change", nodes.(3), view_change);
          ( "New_view",
            nodes.(1),
            M.New_view
              {
                view = 1;
                view_change_envelopes =
                  [ M.seal ~cache:full cfg ~sender:nodes.(3) view_change ];
                batches = [ (1, digest, batch) ];
                replica = 1;
              } );
          ( "Fetch_reply",
            nodes.(2),
            M.Fetch_reply { batches = [ (1, digest, batch) ]; replica = 2 } );
        ]
      in
      List.iter
        (fun (name, sender, body) ->
          let label what = label (name ^ ", " ^ what) in
          let sealed = M.seal ~cache:full cfg ~sender body in
          let sealed_empty = M.seal ~cache:empty cfg ~sender body in
          Alcotest.(check string)
            (label "same envelope with a zero-capacity cache")
            sealed sealed_empty;
          Alcotest.(check bool) (label "verifies under the full cache") true
            (verifies full sealed_empty body);
          (* A zero-capacity verifier must agree with the cached one. *)
          Alcotest.(check bool) (label "verifies under a zero-capacity cache")
            true
            (verifies empty sealed body))
        bodies;
      let sealed = M.seal ~cache:full cfg ~sender:nodes.(1) (M.Request request) in
      (match M.verify_envelope ~cache:full cfg sealed with
      | Ok (M.Request r) -> Alcotest.(check string) (label "op intact") op r.M.op
      | Ok _ -> Alcotest.fail "wrong body"
      | Error e -> Alcotest.fail ("rejected: " ^ e));
      (* Tampering with the op must invalidate the signature under either
         payload: the content-addressed one binds the op through its
         digest. *)
      let tampered = flip_byte sealed (String.length sealed - 40) in
      match M.verify_envelope ~cache:full cfg tampered with
      | Ok _ ->
          (* A flipped byte can land in framing rather than content; the
             decoder rejecting with Error is equally acceptable — what is
             forbidden is accepting a different op silently. *)
          ()
      | Error _ -> ())
    [ 16; 255; 256; 4096 ]

let suite =
  [
    ( "cache",
      List.map QCheck_alcotest.to_alcotest
        [
          diff_verify_test ~name:"cached verify = raw verify (hmac)"
            ~scheme:`Hmac ();
          diff_verify_test ~name:"cached verify = raw verify (hash-based)"
            ~scheme:`Hash_based ();
          diff_verify_test ~capacity:0
            ~name:"cached verify = raw verify (capacity 0)" ~scheme:`Hmac ();
          diff_digest_test;
          diff_lookup_digest_test;
          diff_batch_digest_test;
          diff_crc_combine_test;
        ]
      @ [
          Alcotest.test_case "generation bump invalidates" `Quick
            test_generation_invalidation;
          Alcotest.test_case "sign seeds own verdict" `Quick
            test_sign_seeds_cache;
          Alcotest.test_case "zero-capacity cache keeps nothing" `Quick
            test_zero_capacity_cache;
          Alcotest.test_case "envelope round-trip in both modes" `Quick
            test_envelope_both_payloads;
          Alcotest.test_case "Crc32.combine edge lengths" `Quick
            test_crc_combine_edges;
          Alcotest.test_case "Crc32.shift reused across frames" `Quick
            test_crc_shift_reuse;
        ]
      @ List.map
          (fun capacity -> QCheck_alcotest.to_alcotest (model_test ~capacity))
          [ 0; 1; 2; 17; 4096 ] );
  ]
