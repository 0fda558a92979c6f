open Bp_util
open Bp_crypto

(* NIST / RFC test vectors. *)
let sha256_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (msg, want) -> Alcotest.(check string) msg want (Sha256.hex msg))
    sha256_vectors

let test_sha256_million_a () =
  (* FIPS long vector: one million 'a'. *)
  let ctx = Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.update ctx chunk
  done;
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Hex.encode (Sha256.finalize ctx))

let test_sha256_incremental_equals_oneshot () =
  let rng = Rng.create 100L in
  for _ = 1 to 30 do
    let len = Rng.int rng 300 in
    let s = Bytes.to_string (Rng.bytes rng len) in
    let ctx = Sha256.init () in
    (* Split at a random point. *)
    let cut = if len = 0 then 0 else Rng.int rng len in
    Sha256.update ctx (String.sub s 0 cut);
    Sha256.update ctx (String.sub s cut (len - cut));
    Alcotest.(check string) "incremental" (Sha256.digest s) (Sha256.finalize ctx)
  done

let test_sha256_block_boundaries () =
  (* Lengths straddling the 55/56/64-byte padding boundaries. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.update ctx (String.make 1 c)) s;
      Alcotest.(check string)
        (Printf.sprintf "len %d" n)
        (Sha256.digest s) (Sha256.finalize ctx))
    [ 54; 55; 56; 57; 63; 64; 65; 119; 120; 128 ]

let test_sha256_digest_list () =
  Alcotest.(check string) "list = concat"
    (Sha256.digest "foobarbaz")
    (Sha256.digest_list [ "foo"; "bar"; "baz" ])

let test_hmac_rfc4231 () =
  (* RFC 4231 test case 1. *)
  let key = String.make 20 '\x0b' in
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hex.encode (Hmac.sha256 ~key "Hi There"));
  (* RFC 4231 test case 2. *)
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hex.encode (Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?"));
  (* RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data. *)
  let key3 = String.make 20 '\xaa' and data3 = String.make 50 '\xdd' in
  Alcotest.(check string) "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hex.encode (Hmac.sha256 ~key:key3 data3))

let test_hmac_long_key () =
  (* Keys longer than the block size must be hashed first (RFC 4231 case 6). *)
  let key = String.make 131 '\xaa' in
  Alcotest.(check string) "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hex.encode
       (Hmac.sha256 ~key "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_verify () =
  let tag = Hmac.sha256 ~key:"k" "m" in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key:"k" ~msg:"m" ~tag);
  Alcotest.(check bool) "rejects wrong msg" false
    (Hmac.verify ~key:"k" ~msg:"m2" ~tag);
  Alcotest.(check bool) "rejects wrong key" false
    (Hmac.verify ~key:"k2" ~msg:"m" ~tag);
  Alcotest.(check bool) "rejects truncated tag" false
    (Hmac.verify ~key:"k" ~msg:"m" ~tag:(String.sub tag 0 16))

let test_crc32_vectors () =
  Alcotest.(check int32) "check value" 0xCBF43926l (Crc32.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.string "");
  Alcotest.(check int32) "a" 0xE8B7BE43l (Crc32.string "a")

let test_crc32_incremental () =
  let s = "hello, incremental world" in
  let b = Bytes.of_string s in
  let crc1 = Crc32.string s in
  let mid = 7 in
  let crc2 =
    Crc32.update
      (Crc32.update Crc32.empty b ~off:0 ~len:mid)
      b ~off:mid ~len:(Bytes.length b - mid)
  in
  Alcotest.(check int32) "incremental equals one-shot" crc1 crc2

let test_crc32_detects_flip () =
  let s = Bytes.of_string "some payload that will be corrupted" in
  let before = Crc32.bytes s ~off:0 ~len:(Bytes.length s) in
  Bytes.set s 4 (Char.chr (Char.code (Bytes.get s 4) lxor 0x01));
  let after = Crc32.bytes s ~off:0 ~len:(Bytes.length s) in
  Alcotest.(check bool) "flip changes crc" false (before = after)

let test_merkle_empty_and_single () =
  let empty_root = Merkle.root [] in
  Alcotest.(check int) "32 bytes" 32 (String.length empty_root);
  let single = Merkle.root [ "only" ] in
  Alcotest.(check string) "single = leaf hash" (Merkle.leaf_hash "only") single

let test_merkle_proof_all_positions () =
  List.iter
    (fun n ->
      let leaves = List.init n (fun i -> Printf.sprintf "leaf-%d" i) in
      let root = Merkle.root leaves in
      List.iteri
        (fun i leaf ->
          let proof = Merkle.prove leaves i in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d i=%d verifies" n i)
            true
            (Merkle.verify ~root ~leaf proof))
        leaves)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16 ]

let test_merkle_rejects_wrong_leaf () =
  let leaves = [ "a"; "b"; "c"; "d" ] in
  let root = Merkle.root leaves in
  let proof = Merkle.prove leaves 1 in
  Alcotest.(check bool) "wrong leaf" false (Merkle.verify ~root ~leaf:"x" proof);
  Alcotest.(check bool) "wrong position leaf" false
    (Merkle.verify ~root ~leaf:"a" proof)

let test_merkle_rejects_wrong_root () =
  let leaves = [ "a"; "b"; "c" ] in
  let proof = Merkle.prove leaves 0 in
  Alcotest.(check bool) "wrong root" false
    (Merkle.verify ~root:(Merkle.root [ "a"; "b" ]) ~leaf:"a" proof)

let test_merkle_order_matters () =
  Alcotest.(check bool) "order sensitive" false
    (Merkle.root [ "a"; "b" ] = Merkle.root [ "b"; "a" ])

let test_lamport_sign_verify () =
  let rng = Rng.create 200L in
  let sk, pk = Lamport.keygen rng in
  let s = Lamport.sign sk "hello" in
  Alcotest.(check bool) "accepts" true (Lamport.verify pk "hello" s);
  Alcotest.(check bool) "rejects other msg" false (Lamport.verify pk "hellO" s)

let test_lamport_rejects_cross_key () =
  let rng = Rng.create 201L in
  let sk1, _pk1 = Lamport.keygen rng in
  let _sk2, pk2 = Lamport.keygen rng in
  let s = Lamport.sign sk1 "msg" in
  Alcotest.(check bool) "cross key" false (Lamport.verify pk2 "msg" s)

let test_lamport_encode_roundtrip () =
  let rng = Rng.create 202L in
  let sk, pk = Lamport.keygen rng in
  let s = Lamport.sign sk "roundtrip" in
  match Lamport.decode (Lamport.encode s) with
  | None -> Alcotest.fail "decode failed"
  | Some s' ->
      Alcotest.(check bool) "decoded verifies" true (Lamport.verify pk "roundtrip" s')

let test_lamport_decode_garbage () =
  Alcotest.(check bool) "short input" true (Lamport.decode "garbage" = None)

let test_merkle_sig_many () =
  let rng = Rng.create 300L in
  let signer, pk = Merkle_sig.keygen ~height:3 rng in
  Alcotest.(check int) "capacity" 8 (Merkle_sig.capacity signer);
  for i = 0 to 7 do
    let msg = Printf.sprintf "message %d" i in
    let s = Merkle_sig.sign signer msg in
    Alcotest.(check bool) "verifies" true (Merkle_sig.verify pk msg s);
    Alcotest.(check bool) "binds message" false (Merkle_sig.verify pk "other" s)
  done;
  (try
     ignore (Merkle_sig.sign signer "too many");
     Alcotest.fail "expected exhaustion"
   with Failure _ -> ())

let test_merkle_sig_encode_roundtrip () =
  let rng = Rng.create 301L in
  let signer, pk = Merkle_sig.keygen ~height:2 rng in
  let s = Merkle_sig.sign signer "wire" in
  match Merkle_sig.decode (Merkle_sig.encode s) with
  | None -> Alcotest.fail "decode failed"
  | Some s' ->
      Alcotest.(check bool) "decoded verifies" true (Merkle_sig.verify pk "wire" s')

let test_signer_hmac_scheme () =
  let rng = Rng.create 400L in
  let ks = Signer.create rng in
  Signer.add_identity ks "alice";
  Signer.add_identity ks "bob";
  let s = Signer.sign ks ~signer:"alice" "payload" in
  Alcotest.(check bool) "accepts" true
    (Signer.verify ks ~signer:"alice" ~msg:"payload" ~signature:s);
  Alcotest.(check bool) "wrong identity" false
    (Signer.verify ks ~signer:"bob" ~msg:"payload" ~signature:s);
  Alcotest.(check bool) "wrong message" false
    (Signer.verify ks ~signer:"alice" ~msg:"other" ~signature:s);
  Alcotest.(check bool) "unknown identity" false
    (Signer.verify ks ~signer:"carol" ~msg:"payload" ~signature:s)

let test_signer_hash_based_scheme () =
  let rng = Rng.create 401L in
  let ks = Signer.create ~scheme:`Hash_based rng in
  Signer.add_identity ks "alice";
  let s = Signer.sign ks ~signer:"alice" "payload" in
  Alcotest.(check bool) "accepts" true
    (Signer.verify ks ~signer:"alice" ~msg:"payload" ~signature:s);
  Alcotest.(check bool) "tampered signature" false
    (Signer.verify ks ~signer:"alice" ~msg:"payload"
       ~signature:(String.map (fun c -> Char.chr (Char.code c lxor 1)) s))

let test_signer_hash_based_rollover () =
  let rng = Rng.create 402L in
  let ks = Signer.create ~scheme:`Hash_based rng in
  Signer.add_identity ks "a";
  (* Burn through more than one 64-signature pool. *)
  let all_ok = ref true in
  for i = 0 to 70 do
    let msg = Printf.sprintf "m%d" i in
    let s = Signer.sign ks ~signer:"a" msg in
    if not (Signer.verify ks ~signer:"a" ~msg ~signature:s) then all_ok := false
  done;
  Alcotest.(check bool) "all verify across rollover" true !all_ok

let test_signer_idempotent_registration () =
  let rng = Rng.create 403L in
  let ks = Signer.create rng in
  Signer.add_identity ks "x";
  let s = Signer.sign ks ~signer:"x" "m" in
  Signer.add_identity ks "x";
  Alcotest.(check bool) "keys stable" true
    (Signer.verify ks ~signer:"x" ~msg:"m" ~signature:s)

(* ---------- differential tests against retained references ----------
   Sha256_ref is the pre-optimization Int32 implementation, kept verbatim
   as an oracle. Crc32 is checked against a straightforward bitwise
   (table-free) evaluation of the same reflected polynomial. *)

let test_sha256_ref_vectors () =
  (* The oracle itself must pass FIPS vectors, or differential agreement
     proves nothing. *)
  List.iter
    (fun (msg, want) -> Alcotest.(check string) msg want (Sha256_ref.hex msg))
    sha256_vectors

let big_input_gen =
  (* Random strings up to 1 MiB, biased so most samples are small/medium
     but every run crosses the megabyte mark at least a few times. *)
  QCheck.string_of_size
    QCheck.Gen.(
      oneof [ 0 -- 512; 0 -- 65536; 1_000_000 -- 1_048_576 ])

let qcheck_sha256_differential =
  QCheck.Test.make ~name:"sha256 = reference (inputs to 1 MiB)" ~count:16
    big_input_gen
    (fun s -> Sha256.digest s = Sha256_ref.digest s)

let qcheck_sha256_incremental_differential =
  QCheck.Test.make ~name:"sha256 incremental = reference incremental" ~count:30
    QCheck.(pair (string_of_size Gen.(0 -- 3000)) (int_bound 2999))
    (fun (s, cut) ->
      let cut = if String.length s = 0 then 0 else cut mod String.length s in
      let a = String.sub s 0 cut and b = String.sub s cut (String.length s - cut) in
      let ctx = Sha256.init () in
      Sha256.update ctx a;
      Sha256.update ctx b;
      let rctx = Sha256_ref.init () in
      Sha256_ref.update rctx a;
      Sha256_ref.update rctx b;
      Sha256.finalize ctx = Sha256_ref.finalize rctx)

(* ---------- compression kernels ----------
   Every kernel this CPU can run, driven directly through Sha256.Kernel,
   so the kernel the module did not select is checked against the
   reference too. *)

let kernel_digest k s =
  let ctx = Sha256.init () in
  Sha256.Kernel.update_bytes k ctx (Bytes.of_string s) ~off:0
    ~len:(String.length s);
  Sha256.Kernel.finalize k ctx

let every_kernel f = List.for_all f Sha256.Kernel.available

let test_kernel_selection () =
  let names = List.map Sha256.Kernel.name Sha256.Kernel.available in
  Alcotest.(check string) "portable is always available" "portable"
    (List.hd names);
  Alcotest.(check string) "the fastest available kernel is selected"
    (List.nth names (List.length names - 1))
    (Sha256.Kernel.name Sha256.Kernel.selected)

let qcheck_kernel_lengths =
  QCheck.Test.make ~name:"every kernel = reference (lengths 0-300)" ~count:300
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun s ->
      let want = Sha256_ref.digest s in
      every_kernel (fun k -> String.equal (kernel_digest k s) want))

let test_kernel_padding_boundaries () =
  List.iter
    (fun k ->
      List.iter
        (fun n ->
          let s = String.init n (fun i -> Char.chr (((i * 31) + n) land 0xff)) in
          Alcotest.(check string)
            (Printf.sprintf "%s, %d bytes" (Sha256.Kernel.name k) n)
            (Hex.encode (Sha256_ref.digest s))
            (Hex.encode (kernel_digest k s)))
        [ 0; 1; 55; 56; 63; 64; 65; 119; 120; 128 ])
    Sha256.Kernel.available

(* A prefix leaves the context mid-block; then one update_bytes at a
   non-zero, mostly unaligned offset spans whole blocks plus a tail. *)
let qcheck_kernel_unaligned_multiblock =
  QCheck.Test.make ~name:"every kernel: multi-block update_bytes at ~off > 0"
    ~count:200
    QCheck.(
      triple
        (string_of_size Gen.(0 -- 130))
        (int_range 1 67)
        (string_of_size Gen.(128 -- 1200)))
    (fun (prefix, off, body) ->
      let len = String.length body in
      let src = Bytes.make (off + len + 5) '\xa5' in
      Bytes.blit_string body 0 src off len;
      let want = Sha256_ref.digest (prefix ^ body) in
      every_kernel (fun k ->
          let ctx = Sha256.init () in
          Sha256.Kernel.update_bytes k ctx (Bytes.of_string prefix) ~off:0
            ~len:(String.length prefix);
          Sha256.Kernel.update_bytes k ctx src ~off ~len;
          String.equal (Sha256.Kernel.finalize k ctx) want))

(* Two domains hash the same inputs at once, each several times
   over, split at varying points; both must reproduce the sequential
   digests. *)
let test_sha256_two_domains () =
  let inputs =
    List.init 48 (fun i ->
        String.init (i * 997 mod 20_000) (fun j -> Char.chr ((i + j) land 0xff)))
  in
  let sequential = List.map Sha256.digest inputs in
  let hash_all round =
    List.map
      (fun s ->
        let cut = if s = "" then 0 else (round * 61) mod String.length s in
        let ctx = Sha256.init () in
        Sha256.update ctx (String.sub s 0 cut);
        Sha256.update ctx (String.sub s cut (String.length s - cut));
        Sha256.finalize ctx)
      inputs
  in
  let task () = List.init 8 hash_all in
  let results = Bp_parallel.Pool.run ~jobs:2 [ task; task ] in
  List.iteri
    (fun d rounds ->
      List.iteri
        (fun r digests ->
          Alcotest.(check (list string))
            (Printf.sprintf "domain task %d, round %d" d r)
            sequential digests)
        rounds)
    results

let crc32_bitwise s =
  let crc = ref 0xffffffff in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 0 to 7 do
        crc := if !crc land 1 = 1 then (!crc lsr 1) lxor 0xedb88320 else !crc lsr 1
      done)
    s;
  Int32.of_int (!crc lxor 0xffffffff)

let qcheck_crc32_differential =
  QCheck.Test.make ~name:"crc32 = bitwise reference (inputs to 1 MiB)" ~count:12
    big_input_gen
    (fun s -> Crc32.string s = crc32_bitwise s)

(* ---------- CRC-32 at every offset and split ----------
   Against the bitwise reference above: ranges at every offset mod 16,
   inputs of 64 KiB and 1 MiB, and chained updates split at arbitrary
   points. *)

(* The checksum of every length in [lens] at every offset 0-15 of [s]
   against the reference. *)
let crc32_ranges_agree s ~lens =
  let buf = Bytes.of_string s in
  List.for_all
    (fun off ->
      List.for_all
        (fun len ->
          Int32.equal (Crc32.bytes buf ~off ~len)
            (crc32_bitwise (String.sub s off len)))
        lens)
    (List.init 16 Fun.id)

(* No shrinker on these two: each case checks thousands of ranges or
   megabytes, so shrinking a failure would take far longer than
   reporting it. *)
let qcheck_crc32_offsets =
  QCheck.Test.make ~name:"crc32 = bitwise (off 0-15, len 0-300)"
    ~count:3
    (QCheck.make QCheck.Gen.(string_size (return 316)))
    (fun s -> crc32_ranges_agree s ~lens:(List.init 301 Fun.id))

let qcheck_crc32_large =
  QCheck.Test.make ~name:"crc32 = bitwise (64 KiB and 1 MiB, off 0-15)"
    ~count:1
    (QCheck.make QCheck.Gen.(string_size (return (1_048_576 + 15))))
    (fun s -> crc32_ranges_agree s ~lens:[ 65_536; 1_048_576 ])

(* Chained updates split at random points: the register crosses between
   calls at arbitrary offsets. *)
let qcheck_crc32_chained =
  QCheck.Test.make ~name:"crc32: update split at random points"
    ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 3000)) (small_list (int_bound 3000)))
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts = List.sort_uniq Int.compare (List.map (fun c -> c mod (n + 1)) cuts) in
      let buf = Bytes.of_string s in
      let crc, last =
        List.fold_left
          (fun (crc, off) cut -> (Crc32.update crc buf ~off ~len:(cut - off), cut))
          (Crc32.empty, 0) cuts
      in
      Int32.equal (Crc32.update crc buf ~off:last ~len:(n - last)) (crc32_bitwise s))

(* Each one-byte input looks up exactly one table entry, so the 256
   one-byte checksums against the reference check the whole table. *)
let test_crc32_every_table_entry () =
  for b = 0 to 255 do
    let s = String.make 1 (Char.chr b) in
    Alcotest.(check int32) (Printf.sprintf "byte %d" b) (crc32_bitwise s) (Crc32.string s)
  done

(* Every range outside the buffer raises, whichever bound it breaks; the
   empty ranges at either end are accepted and leave the register as it
   was. *)
let test_crc32_range_bounds () =
  let buf = Bytes.make 16 'a' in
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "off %d, len %d" off len)
        (Invalid_argument "Crc32.update")
        (fun () -> ignore (Crc32.update Crc32.empty buf ~off ~len)))
    [ (-1, 0); (-1, 4); (min_int, 0); (0, -1); (8, -1); (0, 17); (8, 9); (16, 1) ];
  let c = Crc32.string "prefix" in
  Alcotest.(check int32) "empty range at 0" c (Crc32.update c buf ~off:0 ~len:0);
  Alcotest.(check int32) "empty range at the end" c (Crc32.update c buf ~off:16 ~len:0);
  Alcotest.(check int32) "whole buffer" (crc32_bitwise (Bytes.to_string buf))
    (Crc32.bytes buf ~off:0 ~len:16)

(* [off + len] wraps negative for [len = max_int]; the checks must not
   let that through to the loops. *)
let test_huge_length_rejected () =
  let buf = Bytes.make 16 'a' in
  Alcotest.check_raises "Crc32.bytes" (Invalid_argument "Crc32.update") (fun () ->
      ignore (Crc32.bytes buf ~off:1 ~len:max_int));
  Alcotest.check_raises "Sha256.update_bytes"
    (Invalid_argument "Sha256.update_bytes") (fun () ->
      Sha256.update_bytes (Sha256.init ()) buf ~off:1 ~len:max_int);
  Alcotest.check_raises "offset past the end" (Invalid_argument "Crc32.update")
    (fun () -> ignore (Crc32.bytes buf ~off:17 ~len:0))

let qcheck_sha256_deterministic =
  QCheck.Test.make ~name:"sha256 deterministic & 32 bytes" ~count:300
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s -> Sha256.digest s = Sha256.digest s && String.length (Sha256.digest s) = 32)

let qcheck_hmac_key_separation =
  QCheck.Test.make ~name:"hmac distinct keys give distinct tags" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 32)) (string_of_size Gen.(0 -- 64)))
    (fun (key, msg) ->
      Hmac.sha256 ~key msg <> Hmac.sha256 ~key:(key ^ "!") msg)

(* RFC 2104 spelled out on the reference hash: H((K ⊕ opad) ‖ H((K ⊕ ipad)
   ‖ m)), with K hashed first when longer than the block and zero-padded
   to 64 bytes. *)
let hmac_ref ~key msg =
  let key = if String.length key > 64 then Sha256_ref.digest key else key in
  let key = key ^ String.make (64 - String.length key) '\x00' in
  let pad byte = String.map (fun c -> Char.chr (Char.code c lxor byte)) key in
  Sha256_ref.digest (pad 0x5c ^ Sha256_ref.digest (pad 0x36 ^ msg))

let qcheck_hmac_prepared_differential =
  QCheck.Test.make ~name:"hmac prepared key = RFC 2104 on reference sha256"
    ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 200)) (string_of_size Gen.(0 -- 300)))
    (fun (key, msg) ->
      let k = Hmac.prepare key in
      let tag = Hmac.mac k msg in
      tag = hmac_ref ~key msg
      && tag = Hmac.sha256 ~key msg
      && Hmac.verify_prepared k ~msg ~tag
      && Hmac.verify ~key ~msg ~tag)

let qcheck_sha256_resume =
  QCheck.Test.make ~name:"sha256 resumed midstate = one-shot" ~count:200
    QCheck.(pair (int_bound 4) (string_of_size Gen.(0 -- 300)))
    (fun (blocks, rest) ->
      let prefix = String.init (64 * blocks) (fun i -> Char.chr (i * 7 land 0xff)) in
      let ctx = Sha256.init () in
      Sha256.update ctx prefix;
      let m = Sha256.midstate ctx in
      (* Resume twice from one saved midstate: it is never consumed. *)
      let finish () =
        let c = Sha256.resume m in
        Sha256.update c rest;
        Sha256.finalize c
      in
      let once = finish () in
      once = Sha256.digest (prefix ^ rest) && once = finish ())

let test_sha256_midstate_needs_block_boundary () =
  let ctx = Sha256.init () in
  Sha256.update ctx "not a block";
  Alcotest.check_raises "mid-block"
    (Invalid_argument "Sha256.midstate: not on a block boundary") (fun () ->
      ignore (Sha256.midstate ctx));
  Alcotest.check_raises "bad midstate" (Invalid_argument "Sha256.resume")
    (fun () -> ignore (Sha256.resume "short"))

let qcheck_merkle_inclusion =
  QCheck.Test.make ~name:"merkle proofs verify for random forests" ~count:100
    QCheck.(pair (list_of_size Gen.(1 -- 20) (string_of_size Gen.(0 -- 16))) small_nat)
    (fun (leaves, i) ->
      let i = i mod List.length leaves in
      let root = Merkle.root leaves in
      Merkle.verify ~root ~leaf:(List.nth leaves i) (Merkle.prove leaves i))

(* ---------- whole-message C kernels ----------
   The one-shot digest and both HMAC passes run in one C call each. They
   are checked on every kernel this CPU can run: against the streaming
   context, against the reference hash, and against RFC 2104 spelled out
   on the reference hash. *)

let rfc4231 =
  let long_key = String.make 131 '\xaa' in
  [
    ( "case 1", String.make 20 '\x0b', "Hi There",
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
    ( "case 2", "Jefe", "what do ya want for nothing?",
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
    ( "case 3", String.make 20 '\xaa', String.make 50 '\xdd',
      "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
    ( "case 4", String.init 25 (fun i -> Char.chr (i + 1)), String.make 50 '\xcd',
      "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b" );
    ( "case 6", long_key, "Test Using Larger Than Block-Size Key - Hash Key First",
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
    ( "case 7", long_key,
      "This is a test using a larger than block-size key and a larger than \
       block-size data. The key needs to be hashed before being used by the \
       HMAC algorithm.",
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" );
  ]

let test_hmac_rfc4231_every_kernel () =
  List.iter
    (fun k ->
      List.iter
        (fun (case, key, msg, want) ->
          let label = Printf.sprintf "%s, %s" (Sha256.Kernel.name k) case in
          let prepared = Hmac.prepare key in
          Alcotest.(check string) label want
            (Hex.encode (Hmac.Kernel.mac k prepared msg));
          Alcotest.(check bool) (label ^ " verifies") true
            (Hmac.Kernel.verify_prepared k prepared ~msg ~tag:(Hex.decode want)))
        rfc4231)
    Sha256.Kernel.available

let pattern n = String.init n (fun i -> Char.chr (((i * 131) + n) land 0xff))

(* Every length 0-300 covers the padding edges 55/56 (one or two final
   blocks), 63/64 and 119/120. *)
let test_oneshot_digest_lengths () =
  List.iter
    (fun k ->
      for n = 0 to 300 do
        let s = pattern n in
        let label = Printf.sprintf "%s, %d bytes" (Sha256.Kernel.name k) n in
        let want = Sha256_ref.digest s in
        Alcotest.(check string) (label ^ ": one-shot = reference") (Hex.encode want)
          (Hex.encode (Sha256.Kernel.digest k s));
        Alcotest.(check string) (label ^ ": one-shot = streaming")
          (Hex.encode (kernel_digest k s))
          (Hex.encode (Sha256.Kernel.digest k s))
      done)
    Sha256.Kernel.available

let test_hmac_lengths_every_kernel () =
  List.iter
    (fun key ->
      let prepared = Hmac.prepare key in
      List.iter
        (fun k ->
          for n = 0 to 300 do
            let msg = pattern n in
            let label =
              Printf.sprintf "%s, %d-byte key, %d bytes" (Sha256.Kernel.name k)
                (String.length key) n
            in
            let tag = Hmac.Kernel.mac k prepared msg in
            Alcotest.(check string) label (Hex.encode (hmac_ref ~key msg))
              (Hex.encode tag);
            Alcotest.(check bool) (label ^ " verifies") true
              (Hmac.Kernel.verify_prepared k prepared ~msg ~tag)
          done)
        Sha256.Kernel.available)
    [ ""; "k"; String.make 64 '\x5a'; String.make 131 '\xaa' ]

(* A tag of any length but 32 is rejected without raising, and so is a
   32-byte tag off by one bit anywhere. *)
let test_hmac_wrong_tags () =
  let prepared = Hmac.prepare "key" and msg = "message" in
  List.iter
    (fun k ->
      let name = Sha256.Kernel.name k in
      let tag = Hmac.Kernel.mac k prepared msg in
      List.iter
        (fun n ->
          let bad = String.init n (fun i -> if i < 32 then tag.[i] else '\x00') in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d-byte tag" name n)
            false
            (Hmac.Kernel.verify_prepared k prepared ~msg ~tag:bad))
        [ 0; 1; 16; 31; 33; 64; 1000 ];
      for bit = 0 to 255 do
        let b = Bytes.of_string tag in
        let i = bit / 8 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
        Alcotest.(check bool)
          (Printf.sprintf "%s: bit %d flipped" name bit)
          false
          (Hmac.Kernel.verify_prepared k prepared ~msg ~tag:(Bytes.to_string b))
      done;
      Alcotest.check_raises (name ^ ": bad midstate")
        (Invalid_argument "Sha256.Kernel.hmac: not a midstate") (fun () ->
          ignore (Sha256.Kernel.hmac k ~inner:"short" ~outer:"short" msg)))
    Sha256.Kernel.available

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "crypto.sha256",
      [
        tc "NIST vectors" test_sha256_vectors;
        tc "million a" test_sha256_million_a;
        tc "incremental = one-shot" test_sha256_incremental_equals_oneshot;
        tc "block boundaries" test_sha256_block_boundaries;
        tc "digest_list" test_sha256_digest_list;
        tc "reference passes NIST vectors" test_sha256_ref_vectors;
        QCheck_alcotest.to_alcotest qcheck_sha256_deterministic;
        QCheck_alcotest.to_alcotest qcheck_sha256_differential;
        QCheck_alcotest.to_alcotest qcheck_sha256_incremental_differential;
        tc "midstate needs a block boundary" test_sha256_midstate_needs_block_boundary;
        QCheck_alcotest.to_alcotest qcheck_sha256_resume;
        tc "kernel selection" test_kernel_selection;
        QCheck_alcotest.to_alcotest qcheck_kernel_lengths;
        tc "kernel padding boundaries" test_kernel_padding_boundaries;
        QCheck_alcotest.to_alcotest qcheck_kernel_unaligned_multiblock;
        tc "two domains hash at once" test_sha256_two_domains;
        tc "every kernel: one-shot digest, lengths 0-300" test_oneshot_digest_lengths;
      ] );
    ( "crypto.hmac",
      [
        tc "RFC 4231 vectors" test_hmac_rfc4231;
        tc "long key" test_hmac_long_key;
        tc "verify accepts/rejects" test_hmac_verify;
        QCheck_alcotest.to_alcotest qcheck_hmac_key_separation;
        QCheck_alcotest.to_alcotest qcheck_hmac_prepared_differential;
        tc "every kernel: RFC 4231 cases 1-4, 6, 7" test_hmac_rfc4231_every_kernel;
        tc "every kernel: lengths 0-300 = RFC 2104 reference"
          test_hmac_lengths_every_kernel;
        tc "every kernel: wrong tags rejected, never raise" test_hmac_wrong_tags;
      ] );
    ( "crypto.crc32",
      [
        tc "known vectors" test_crc32_vectors;
        tc "incremental" test_crc32_incremental;
        tc "detects bit flip" test_crc32_detects_flip;
        QCheck_alcotest.to_alcotest qcheck_crc32_differential;
        QCheck_alcotest.to_alcotest qcheck_crc32_offsets;
        QCheck_alcotest.to_alcotest qcheck_crc32_large;
        QCheck_alcotest.to_alcotest qcheck_crc32_chained;
        tc "every table entry" test_crc32_every_table_entry;
        tc "range bounds" test_crc32_range_bounds;
        tc "huge lengths rejected" test_huge_length_rejected;
      ] );
    ( "crypto.merkle",
      [
        tc "empty and single" test_merkle_empty_and_single;
        tc "proofs at every position" test_merkle_proof_all_positions;
        tc "rejects wrong leaf" test_merkle_rejects_wrong_leaf;
        tc "rejects wrong root" test_merkle_rejects_wrong_root;
        tc "order matters" test_merkle_order_matters;
        QCheck_alcotest.to_alcotest qcheck_merkle_inclusion;
      ] );
    ( "crypto.lamport",
      [
        tc "sign/verify" test_lamport_sign_verify;
        tc "rejects cross key" test_lamport_rejects_cross_key;
        tc "encode roundtrip" test_lamport_encode_roundtrip;
        tc "decode garbage" test_lamport_decode_garbage;
      ] );
    ( "crypto.merkle_sig",
      [
        tc "many signatures + exhaustion" test_merkle_sig_many;
        tc "encode roundtrip" test_merkle_sig_encode_roundtrip;
      ] );
    ( "crypto.signer",
      [
        tc "hmac scheme" test_signer_hmac_scheme;
        tc "hash-based scheme" test_signer_hash_based_scheme;
        tc "hash-based rollover" test_signer_hash_based_rollover;
        tc "idempotent registration" test_signer_idempotent_registration;
      ] );
  ]
