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
   hit/miss counts after every single step. The message pool crosses the
   512-byte bound under which keys are copied into the key store: 0, 7,
   8, 120, 200 and 1000 bytes, each a prefix of the next, plus two
   300-byte messages that differ only in the middle; the signers' names
   run from 1 to 60 bytes. The signature pool is small (valid tags,
   tampered tags and the all-zero forged tag under every signer), so
   keys collide in the index and entries are refreshed in place, inline
   when the new message is no longer than the old, by pointer
   otherwise; capacities 1, 2 and 17 evict constantly, 4096 grows the
   slot arrays without evicting, and 0 keeps nothing. *)
let model_msgs =
  let middle c =
    let b = Bytes.make 300 'm' in
    Bytes.set b 150 c;
    Bytes.to_string b
  in
  Array.append
    (Array.map
       (fun n -> String.init n (fun i -> Char.chr (97 + (i * 7 mod 26))))
       [| 0; 7; 8; 120; 200; 1000 |])
    [| middle 'a'; middle 'b' |]

let model_ids = [| "s"; "cache/id1"; "cache/signer-2"; String.make 60 'n'; "id4" |]

let model_test ~capacity =
  let msgs = model_msgs and signers = model_ids in
  let n_valid = Array.length signers * Array.length msgs in
  let zero_tag = String.make 32 '\x00' in
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "verdict cache = reference model (capacity %d)" capacity)
    QCheck.(
      list_of_size Gen.(0 -- 300)
        (quad (int_bound 9)
           (int_bound (Array.length signers))
           (int_bound (Array.length msgs - 1))
           (int_bound (n_valid + 4 + Array.length signers - 1))))
    (fun ops ->
      let ks = Signer.create (Bp_util.Rng.create 42L) in
      Array.iter (Signer.add_identity ks) signers;
      let sigs =
        Array.map
          (fun id -> Array.map (fun m -> Signer.sign ks ~signer:id m) msgs)
          signers
      in
      let signature_of c =
        if c < n_valid then sigs.(c / Array.length msgs).(c mod Array.length msgs)
        else if c < n_valid + 4 then zero_tag
        else flip_byte sigs.(c - n_valid - 4).(0) c
      in
      let cache = Verify_cache.create ~capacity ks in
      let model = Verify_cache_ref.create ~capacity ks in
      let bumps = ref 0 in
      List.for_all
        (fun (kind, who, m, c) ->
          let signer =
            if who < Array.length signers then signers.(who) else "cache/ghost"
          in
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
                let signer = signers.(who mod Array.length signers) in
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

(* One lockstep verdict step: the same call on the cache and the model,
   then the same result and the same verdict counters. *)
let verdict_step cache model ~signer ~msg ~signature ~probe =
  let same =
    if probe then
      Verify_cache.probe cache ~signer ~msg ~signature
      = Verify_cache_ref.probe model ~signer ~msg ~signature
    else
      Verify_cache.verify cache ~signer ~msg ~signature
      = Verify_cache_ref.verify model ~signer ~msg ~signature
  in
  let c = Verify_cache.instance_counters cache in
  same
  && c.Verify_cache.verify_hits = Verify_cache_ref.hits model
  && c.Verify_cache.verify_misses = Verify_cache_ref.misses model

(* The key store is a byte ring in FIFO order, so once evictions start
   its tail wraps to offset 0 ahead of the oldest entry, and a store that
   must then grow lays a wrapped ring out again, oldest first, skipped
   bytes and all. A scripted lockstep run makes that happen at capacity
   64 (64 slots from the start, so only the store grows): 64 entries of
   157 bytes (stamp, tag, signer and a 108-byte message) grow the store
   to 16 KiB, 40 more take its tail to 16,328, then 64 entries of 457
   bytes, with a kept-by-pointer 1000-byte message every eighth, wrap the
   tail to offset 0, catch up with the head about twenty entries later
   and grow the store while wrapped. After each insertion a probe of the
   oldest entry left must hit, so no new key may overwrite its bytes;
   at the end probes of re-allocated copies of every message show
   exactly which entries are left: the last 64, and no other. *)
let test_verdict_ring_regrows_wrapped () =
  let ks = make_keystore () in
  let cache = Verify_cache.create ~capacity:64 ks in
  let model = Verify_cache_ref.create ~capacity:64 ks in
  let signer = ids.(3) in
  let message k len = Printf.sprintf "%06d" k ^ String.make (len - 6) 'v' in
  let script =
    List.init 104 (fun k -> message k 108)
    @ List.init 64 (fun k -> message (1000 + k) (if k mod 8 = 7 then 1000 else 408))
  in
  let keyed = List.map (fun msg -> (msg, Signer.sign ks ~signer msg)) script in
  let by_step = Array.of_list keyed in
  List.iteri
    (fun step (msg, signature) ->
      Alcotest.(check bool)
        (Printf.sprintf "step %d" step)
        true
        (verdict_step cache model ~signer ~msg ~signature ~probe:false);
      let msg, signature = by_step.(max 0 (step - 63)) in
      Alcotest.(check bool)
        (Printf.sprintf "oldest after step %d" step)
        true
        (verdict_step cache model ~signer ~msg:(String.concat "" [ msg; "" ]) ~signature
           ~probe:true))
    keyed;
  List.iteri
    (fun step (msg, signature) ->
      let msg = String.concat "" [ msg; "" ] in
      Alcotest.(check bool)
        (Printf.sprintf "probe %d" step)
        true
        (verdict_step cache model ~signer ~msg ~signature ~probe:true))
    keyed;
  let c = Verify_cache.instance_counters cache in
  Alcotest.(check int) "every oldest entry and the last 64 hit" (168 + 64)
    c.Verify_cache.verify_hits;
  Alcotest.(check int) "every other probe misses" (168 + 104) c.Verify_cache.verify_misses

(* The key store never lets a new key overwrite a live one. Fresh
   messages of random lengths (4 to 504 bytes, so some keys are kept by
   pointer) are verified one by one, and after each the last [capacity]
   of them, exactly the entries a FIFO table holds, must all still hit:
   random lengths make the tail of the wrapped byte ring stop at every
   distance from its head. *)
let live_keys_test =
  QCheck.Test.make ~count:50 ~name:"verdict key store keeps every live key"
    QCheck.(pair (int_range 1 40) (list_of_size Gen.(1 -- 400) (int_bound 500)))
    (fun (capacity, lens) ->
      let ks = make_keystore () in
      let cache = Verify_cache.create ~capacity ks in
      let keys =
        Array.of_list
          (List.mapi
             (fun i len ->
               let signer = ids.(i land 7) in
               let msg = Printf.sprintf "%04d" i ^ String.make len 'k' in
               (signer, msg, Signer.sign ks ~signer msg))
             lens)
      in
      let live i =
        let signer, msg, signature = keys.(i) in
        Verify_cache.probe cache ~signer ~msg ~signature = Some true
      in
      let rec all_live j i = j > i || (live j && all_live (j + 1) i) in
      let rec run i =
        i = Array.length keys
        ||
        let signer, msg, signature = keys.(i) in
        Verify_cache.verify cache ~signer ~msg ~signature
        && all_live (max 0 (i - capacity + 1)) i
        && run (i + 1)
      in
      run 0)

(* Inline keys hold no pointer, so the table keeps nothing alive: after
   4096 fresh 100-byte messages, each under a fresh signature, have been
   verified (filling a default table exactly) and dropped, a full major
   collection frees every one of them and every signature. *)
let test_verdict_table_pins_no_message () =
  let ks = make_keystore () in
  let cache = Verify_cache.create ks in
  let n = 4096 in
  let msgs = Weak.create n and sigs = Weak.create n in
  for i = 0 to n - 1 do
    let msg = Printf.sprintf "%08d" i ^ String.make 92 'p' in
    let signature = Signer.sign ks ~signer:ids.(i land 7) msg in
    Alcotest.(check bool) "verifies" true
      (Verify_cache.verify cache ~signer:ids.(i land 7) ~msg ~signature);
    Weak.set msgs i (Some msg);
    Weak.set sigs i (Some signature)
  done;
  Gc.full_major ();
  let alive w = List.length (List.filter (Weak.check w) (List.init n Fun.id)) in
  Alcotest.(check int) "no message kept alive" 0 (alive msgs);
  Alcotest.(check int) "no signature kept alive" 0 (alive sigs);
  Alcotest.(check int) "every verify a miss" n
    (Verify_cache.instance_counters cache).Verify_cache.verify_misses

(* Model check of the flat digest memo against the original
   Hashtbl-and-Queue memo ([Verify_cache_ref.Digest_memo]): random
   sequences of [digest] and [lookup_digest] calls must return the same
   digests and leave the same hit/miss counts after every single step.
   The content pool holds every string in two physically distinct copies
   (so probes match by content, not only by identity). Its hot end, drawn
   about half the time, has strings under the 256-byte memo minimum,
   memo-sized ones and three that differ only in their middles (one
   shared fingerprint); the rest is 400 distinct memo-sized strings, one
   of exactly the budget and one a byte over it, which is evicted right
   after its own insertion. Budget 0 keeps nothing, 1 KiB evicts on
   nearly every insertion, 64 KiB grows the ring past its first 64 slots
   and evicts, and 8 MiB grows it without evicting until a budget-sized
   entry arrives. *)
(* One lockstep step: the same call on both memos, then the same result
   and the same digest counters. *)
let digest_step cache model ~lookup s =
  let module R = Verify_cache_ref.Digest_memo in
  let same =
    if lookup then
      String.equal (Verify_cache.lookup_digest cache s) (R.lookup_digest model s)
    else String.equal (Verify_cache.digest cache s) (R.digest model s)
  in
  let c = Verify_cache.instance_counters cache in
  same
  && c.Verify_cache.digest_hits = R.hits model
  && c.Verify_cache.digest_misses = R.misses model

let digest_model_test ~budget =
  let content i len =
    String.init len (fun j -> Char.chr (((j * 7) + (i * 31) + (j lsr 8)) land 0xff))
  in
  let middle i =
    let b = Bytes.of_string (content 99 600) in
    Bytes.set b 300 (Char.chr i);
    Bytes.to_string b
  in
  let hot =
    [ content 0 0; content 1 10; content 2 255; content 3 256; content 4 300 ]
    @ List.init 6 (fun i -> content (10 + i) (257 + (i * 211)))
    @ List.init 3 middle
  in
  let cold =
    List.init 400 (fun i -> content (100 + i) (256 + (i * 37 mod 500)))
    @ List.filter
        (fun s -> String.length s > 0)
        [ content 20 budget; content 21 (budget + 1) ]
  in
  let copies = List.concat_map (fun s -> [ s; String.concat "" [ s; "" ] ]) in
  let pool = Array.of_list (copies hot @ copies cold) in
  let n_hot = 2 * List.length hot in
  QCheck.Test.make ~count:100
    ~name:(Printf.sprintf "digest memo = reference model (budget %d)" budget)
    (QCheck.make
       QCheck.Gen.(
         list_size (0 -- 400)
           (pair (int_bound 3)
              (frequency
                 [ (1, int_bound (n_hot - 1)); (1, int_bound (Array.length pool - 1)) ]))))
    (fun ops ->
      let ks = make_keystore () in
      let cache = Verify_cache.create ~digest_budget:budget ks in
      let model = Verify_cache_ref.Digest_memo.create ~budget in
      List.for_all
        (fun (kind, i) -> digest_step cache model ~lookup:(kind = 0) pool.(i))
        ops)

(* The ring only regrows when it is full, and after an eviction its
   oldest entry is no longer in slot 0, so a regrow must lay a wrapped
   ring out again, oldest first. A scripted lockstep run makes that
   happen: 40 entries, then an oversized one that evicts them all and
   itself (the ring is empty, its head at slot 41), then 150 entries that
   fit the 64 KiB budget (the ring fills wrapped and regrows, then
   regrows again), then 100 more that push the oldest of them out, then
   a probe of each of the 150 (re-allocated copies), whose hits and
   misses (newest first) show exactly which ones eviction took. *)
let test_digest_ring_regrows_wrapped () =
  let ks = make_keystore () in
  let budget = 65536 in
  let cache = Verify_cache.create ~digest_budget:budget ks in
  let model = Verify_cache_ref.Digest_memo.create ~budget in
  let distinct k = Printf.sprintf "%06d" k ^ String.make 294 'd' in
  let script =
    List.init 40 (fun k -> distinct (1000 + k))
    @ [ String.make (budget + 1) 'o' ]
    @ List.init 150 distinct
    @ List.init 100 (fun k -> distinct (500 + k))
    @ List.init 150 (fun k -> String.concat "" [ distinct (149 - k); "" ])
  in
  List.iteri
    (fun step s ->
      Alcotest.(check bool)
        (Printf.sprintf "step %d" step)
        true
        (digest_step cache model ~lookup:false s))
    script;
  (* 218 entries of 300 bytes fit the budget, so the 100 push out the 32
     oldest of the 150; probed newest first, the other 118 hit. *)
  let c = Verify_cache.instance_counters cache in
  Alcotest.(check int) "probe hits" 118 c.Verify_cache.digest_hits;
  Alcotest.(check int) "misses" (291 + 32) c.Verify_cache.digest_misses

(* The memo's fingerprint reads only the length and the first and last
   64 bytes, so strings that differ only in their middles share it. Each
   must still miss once, get its own digest, and hit afterwards, through
   a re-allocated copy too; the read-only lookup must tell them apart as
   well. *)
let test_fingerprint_collisions () =
  let ks = make_keystore () in
  let cache = Verify_cache.create ks in
  let base = String.init 1000 (fun i -> Char.chr (i land 0xff)) in
  let variants =
    List.init 4 (fun k ->
        let b = Bytes.of_string base in
        Bytes.set b 500 (Char.chr k);
        Bytes.to_string b)
  in
  List.iteri
    (fun k s ->
      Alcotest.(check string)
        (Printf.sprintf "variant %d: own digest" k)
        (Sha256.digest s) (Verify_cache.digest cache s);
      Alcotest.(check int)
        (Printf.sprintf "variant %d: one miss each" k)
        (k + 1) (Verify_cache.instance_counters cache).Verify_cache.digest_misses)
    variants;
  List.iteri
    (fun k s ->
      let copy = String.concat "" [ s; "" ] in
      Alcotest.(check string)
        (Printf.sprintf "variant %d: lookup" k)
        (Sha256.digest s) (Verify_cache.lookup_digest cache copy);
      Alcotest.(check string)
        (Printf.sprintf "variant %d: hit" k)
        (Sha256.digest s) (Verify_cache.digest cache copy))
    variants;
  let c = Verify_cache.instance_counters cache in
  Alcotest.(check int) "no further miss" 4 c.Verify_cache.digest_misses;
  Alcotest.(check int) "every repeat hits" 4 c.Verify_cache.digest_hits

(* Hits are the common case on the receive path, so they must cost no
   allocation: averaged over 10k calls, a digest-memo hit (by identity and
   by content), a verdict hit through [verify] and one through [probe]
   allocate no minor words. Nor does the [record] of an inline key,
   whether it refreshes its entry in place or inserts a new one that
   evicts the oldest (on a full table whose key store has settled). *)
let test_hits_allocate_nothing () =
  let ks = make_keystore () in
  let cache = Verify_cache.create ks in
  let content = String.init 4096 (fun i -> Char.chr ((i * 13) land 0xff)) in
  let copy = String.concat "" [ content; "" ] in
  ignore (Verify_cache.digest cache content);
  let msg = "allocation-free hit" in
  let signature = Verify_cache.sign cache ~signer:ids.(0) msg in
  let calls = 10_000 in
  let words_per_call name f =
    f ();
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      f ()
    done;
    let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
    (* The float [Gc.minor_words] boxes is the only allocation allowed. *)
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.4f words per call" name per_call)
      true (per_call < 0.01)
  in
  words_per_call "digest hit (same string)" (fun () ->
      ignore (Sys.opaque_identity (Verify_cache.digest cache content)));
  words_per_call "digest hit (equal copy)" (fun () ->
      ignore (Sys.opaque_identity (Verify_cache.digest cache copy)));
  words_per_call "lookup_digest hit" (fun () ->
      ignore (Sys.opaque_identity (Verify_cache.lookup_digest cache copy)));
  words_per_call "verdict hit (verify)" (fun () ->
      ignore
        (Sys.opaque_identity
           (Verify_cache.verify cache ~signer:ids.(0) ~msg ~signature)));
  words_per_call "verdict hit (probe)" (fun () ->
      ignore
        (Sys.opaque_identity
           (Verify_cache.probe cache ~signer:ids.(0) ~msg ~signature)));
  words_per_call "record (refresh in place)" (fun () ->
      Verify_cache.record cache ~signer:ids.(0) ~msg ~signature ~verdict:true);
  let keys =
    Array.init (3 * 4096 + calls + 1) (fun i ->
        let msg = Printf.sprintf "%08d" i ^ String.make 92 'r' in
        (msg, Signer.sign ks ~signer:ids.(1) msg))
  in
  let next = ref 0 in
  let record_next () =
    let msg, signature = keys.(!next) in
    incr next;
    Verify_cache.record cache ~signer:ids.(1) ~msg ~signature ~verdict:true
  in
  for _ = 1 to 3 * 4096 do
    record_next ()
  done;
  words_per_call "record (insert, evicting)" record_next;
  let c = Verify_cache.instance_counters cache in
  Alcotest.(check int) "digest: the one miss" 1 c.Verify_cache.digest_misses;
  Alcotest.(check int) "verify: no miss" 0 c.Verify_cache.verify_misses

(* A short-lived cache never pays for its full size: the verdict index
   grows with the slot arrays instead of being allocated at twice the
   capacity up front, so a fresh default cache (capacity 4096) holds a
   few hundred words beyond its keystore, not the 8192-cell index. After
   filling to capacity it holds the full index. *)
let test_fresh_cache_is_small () =
  let ks = make_keystore () in
  let own cache =
    Obj.reachable_words (Obj.repr cache) - Obj.reachable_words (Obj.repr ks)
  in
  let cache = Verify_cache.create ks in
  let fresh = own cache in
  Alcotest.(check bool)
    (Printf.sprintf "fresh cache: %d words" fresh)
    true (fresh < 2048);
  for i = 1 to 4096 do
    Verify_cache.record cache ~signer:ids.(0) ~msg:"m"
      ~signature:(Printf.sprintf "signature %d" i) ~verdict:true
  done;
  Alcotest.(check bool) "full cache holds the full index" true
    (own cache > 8192)

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
        executions = 0;
        sha = Verify_cache.sha_memo ();
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

(* A request's SHA-256 memo ([Msg.request.sha]) on every path a request
   takes: the client's record and the record a delivery hint shares (one
   value), a copy carrying another op and a copy carrying the same bytes
   in another string (both [{ r with op }], sharing the memo), and a
   freshly decoded record. Ops sit on both sides of the 256-byte
   cutoffs. Along a random trace of [digest_with] and
   [lookup_digest_with] calls, through a node's cache (a 2 KiB budget,
   so its own memo evicts and the request's is read) and through a
   zero-budget cache, every call must return the SHA-256 of the record's
   current op. The node's digest counters must equal those of a cache
   making the same calls without the memo, and the zero-budget cache
   must hash every call in full. *)
let memo_soundness_test =
  let module M = Bp_pbft.Msg in
  let ks = make_keystore () in
  let nodes = Array.init 4 (fun i -> Bp_sim.Addr.make ~dc:0 ~idx:i) in
  let client = Bp_sim.Addr.make ~dc:1 ~idx:0 in
  let cfg = Bp_pbft.Config.make ~nodes ~keystore:ks () in
  let gen_op = QCheck.Gen.(string_size (oneof [ 0 -- 40; 240 -- 270; 1000 -- 1100 ])) in
  let request = function
    | Ok (M.Request r) -> r
    | Ok _ | Error _ -> failwith "not the request"
  in
  QCheck.Test.make ~count:300 ~name:"request SHA memo gives the current op's digest"
    (QCheck.make
       QCheck.Gen.(
         triple gen_op gen_op (list_size (1 -- 12) (triple (0 -- 4) bool bool))))
    (fun (op, other, trace) ->
      let signer = Verify_cache.create ks in
      let r = M.make_request ~cache:signer cfg ~client ~ts:1 ~kind:0 ~op in
      let envelope, hint =
        M.seal_with_hint ~cache:signer cfg ~sender:client (M.Request r)
      in
      let hinted =
        request (M.verify_envelope ~cache:(Verify_cache.create ks) ~hint cfg envelope)
      in
      let variants =
        [|
          r;
          hinted;
          { r with M.op = other };
          { r with M.op = String.concat "" [ op; "" ] };
          request (M.decode_body (M.encode_body (M.Request r)));
        |]
      in
      let node = Verify_cache.create ~digest_budget:2048 ks in
      let model = Verify_cache.create ~digest_budget:2048 ks in
      let zero = Verify_cache.create ~capacity:0 ~digest_budget:0 ks in
      List.for_all
        (fun (k, lookup, through_zero) ->
          let v = variants.(k) in
          let s = v.M.op in
          let expected = Sha256.digest s in
          let memoized cache =
            if lookup then Verify_cache.lookup_digest_with cache v.M.sha s
            else Verify_cache.digest_with cache v.M.sha s
          in
          if through_zero then begin
            let before = Verify_cache.sha_bytes zero in
            String.equal (memoized zero) expected
            && Verify_cache.sha_bytes zero = before + String.length s
          end
          else
            let plain =
              if lookup then Verify_cache.lookup_digest model s
              else Verify_cache.digest model s
            in
            String.equal (memoized node) expected
            && String.equal plain expected
            && Verify_cache.instance_counters node
               = Verify_cache.instance_counters model)
        trace)

(* The content-addressed image is written straight into the encoder; the
   original built it as a body first and encoded that
   ([Msg_ref.signing_payload]). For every bulky constructor, with ops
   sized around the 256-byte cutoff (one at a time and summed over a
   batch) and carried envelopes around it too, both must give the same
   bytes and leave their caches with the same counters. A 2 KiB digest
   budget evicts constantly, so a change in the order of memo calls
   would show in the counters. *)
let signing_payload_model_test =
  let module M = Bp_pbft.Msg in
  let sizes = [| 0; 1; 100; 127; 128; 129; 255; 256; 257; 300; 1500 |] in
  QCheck.Test.make ~count:100 ~name:"signing_payload = reference 0xCA image"
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 4) (int_bound (Array.length sizes - 1)))
        (int_bound (Array.length sizes - 1))
        bool)
    (fun (picks, env_pick, repeat) ->
      let ks = make_keystore () in
      let cache = Verify_cache.create ~digest_budget:2048 ks in
      let ref_cache = Verify_cache.create ~digest_budget:2048 ks in
      let ops =
        List.mapi
          (fun i k ->
            String.make sizes.(k) (Char.chr (if repeat then 97 else 97 + i)))
          picks
      in
      let batch = mk_batch ops in
      let envelope c = String.make sizes.(env_pick) c in
      let proof pseq =
        { M.pview = 0; pseq; pdigest = "d"; pbatch = batch; prepares = [ envelope 'p' ] }
      in
      let bodies =
        List.map (fun r -> M.Request r) batch
        @ [
            M.Pre_prepare { view = 0; seq = 1; digest = "d"; batch };
            M.View_change
              {
                new_view = 1;
                stable_seq = 0;
                prepared = [ proof 1; proof 2 ];
                vc_replica = 3;
              };
            M.New_view
              {
                view = 1;
                view_change_envelopes = [ envelope 'x'; envelope 'y' ];
                replica = 1;
              };
            M.Fetch_reply { batches = [ (1, "d", batch); (2, "e", batch) ]; replica = 2 };
          ]
      in
      List.for_all
        (fun body ->
          let payload =
            M.signing_payload ~cache ~encoded:(fun () -> M.encode_body body) body
          in
          String.equal payload (Msg_ref.signing_payload ~cache:ref_cache body)
          && Verify_cache.instance_counters cache
             = Verify_cache.instance_counters ref_cache)
        bodies)

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
    | Ok b -> String.equal (M.encode_body b) (M.encode_body body)
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
            prepared =
              [
                {
                  M.pview = 0;
                  pseq = 1;
                  pdigest = digest;
                  pbatch = batch;
                  prepares =
                    [
                      M.seal ~cache:full cfg ~sender:nodes.(2)
                        (M.Prepare { view = 0; seq = 1; digest; replica = 2 });
                    ];
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
          live_keys_test;
          diff_batch_digest_test;
          memo_soundness_test;
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
          Alcotest.test_case "fingerprint collisions miss once each" `Quick
            test_fingerprint_collisions;
          Alcotest.test_case "hits allocate nothing" `Quick
            test_hits_allocate_nothing;
          Alcotest.test_case "fresh cache is small" `Quick
            test_fresh_cache_is_small;
          Alcotest.test_case "digest ring regrows wrapped" `Quick
            test_digest_ring_regrows_wrapped;
          Alcotest.test_case "verdict ring regrows wrapped" `Quick
            test_verdict_ring_regrows_wrapped;
          Alcotest.test_case "verdict table pins no message" `Quick
            test_verdict_table_pins_no_message;
        ]
      @ List.map
          (fun capacity -> QCheck_alcotest.to_alcotest (model_test ~capacity))
          [ 0; 1; 2; 17; 4096 ]
      @ List.map
          (fun budget -> QCheck_alcotest.to_alcotest (digest_model_test ~budget))
          [ 0; 1024; 65536; 8 * 1024 * 1024 ]
      @ [ QCheck_alcotest.to_alcotest signing_payload_model_test ] );
  ]
