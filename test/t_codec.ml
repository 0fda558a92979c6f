open Bp_codec

let test_varint_roundtrip () =
  List.iter
    (fun n ->
      let s = Wire.encode (fun e -> Wire.varint e n) in
      match Wire.decode s Wire.read_varint with
      | Ok m -> Alcotest.(check int) (string_of_int n) n m
      | Error e -> Alcotest.fail e)
    [ 0; 1; 127; 128; 129; 16383; 16384; 1 lsl 20; 1 lsl 40; max_int ]

let test_varint_negative_rejected () =
  (try
     ignore (Wire.encode (fun e -> Wire.varint e (-1)));
     Alcotest.fail "expected raise"
   with Invalid_argument _ -> ())

let test_zigzag_roundtrip () =
  List.iter
    (fun n ->
      let s = Wire.encode (fun e -> Wire.zigzag e n) in
      match Wire.decode s Wire.read_zigzag with
      | Ok m -> Alcotest.(check int) (string_of_int n) n m
      | Error e -> Alcotest.fail e)
    [ 0; 1; -1; 2; -2; 1000; -1000; (1 lsl 40) - 1; -(1 lsl 40) ]

let test_zigzag_extremes () =
  (* zigzag must be total on the full int range: min_int used to overflow
     into a negative raw varint and fail to encode. *)
  List.iter
    (fun n ->
      let s = Wire.encode (fun e -> Wire.zigzag e n) in
      match Wire.decode s Wire.read_zigzag with
      | Ok m -> Alcotest.(check int) (string_of_int n) n m
      | Error e -> Alcotest.fail e)
    [ min_int; min_int + 1; max_int; max_int - 1; min_int / 2; max_int / 2 ]

let test_varint_rejection_is_precise () =
  (* Exactly 10 continuation bytes: one too many for a 63-bit int. The
     error must say so rather than looping or silently wrapping. *)
  let hostile = String.make 9 '\xff' ^ "\x01" in
  (match Wire.decode hostile Wire.read_varint with
  | Ok _ -> Alcotest.fail "10-byte varint accepted"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions the limit: %S" msg)
        true
        (String.length msg > 0
        && (let has_sub sub =
              let n = String.length sub and m = String.length msg in
              let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
              go 0
            in
            has_sub "10 bytes")));
  (* 9 bytes ending the encoding is still fine (max_int needs 9). *)
  let ok = Wire.encode (fun e -> Wire.varint e max_int) in
  Alcotest.(check int) "max_int is 9 bytes" 9 (String.length ok);
  match Wire.decode ok Wire.read_varint with
  | Ok m -> Alcotest.(check int) "max_int roundtrip" max_int m
  | Error e -> Alcotest.fail e

let test_varint_negative_result_rejected () =
  (* A 9-byte raw varint whose 63-bit value has the top bit set decodes
     to a negative int: read_varint must reject it (read_zigzag may not). *)
  let hostile = String.make 8 '\x80' ^ "\x40" in
  match Wire.decode hostile Wire.read_varint with
  | Ok m -> Alcotest.fail (Printf.sprintf "negative varint accepted: %d" m)
  | Error _ -> ()

(* The size helpers that exact-size encodes rely on, at every varint
   length boundary up to the largest int. *)
let test_encoded_sizes () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "varint_size %d" n)
        (String.length (Wire.encode (fun e -> Wire.varint e n)))
        (Wire.varint_size n);
      let s = String.make (n land 0xffff) 'x' in
      Alcotest.(check int)
        (Printf.sprintf "string_size of %d bytes" (String.length s))
        (String.length (Wire.encode (fun e -> Wire.string e s)))
        (Wire.string_size s))
    [ 0; 127; 128; 16383; 16384; max_int ];
  Alcotest.check_raises "negative" (Invalid_argument "Wire.varint_size: negative")
    (fun () -> ignore (Wire.varint_size (-1)))

(* An exact-size encode hands its own buffer out as the result. That
   string must never change afterwards, whatever later encodes write. *)
let test_exact_encode_is_stable () =
  let payload = String.init 1000 (fun i -> Char.chr (i land 0xff)) in
  let exact =
    Wire.encode ~size_hint:(Wire.string_size payload) (fun e ->
        Wire.string e payload)
  in
  let copy = String.sub exact 0 (String.length exact) in
  for i = 1 to 50 do
    ignore
      (Wire.encode ~size_hint:(Wire.string_size payload) (fun e ->
           Wire.string e (String.make 1000 (Char.chr i))))
  done;
  Alcotest.(check string) "unchanged after later encodes" copy exact;
  Alcotest.(check (result string string)) "decodes" (Ok payload)
    (Wire.decode exact Wire.read_string)

(* The hint is only a hint: writers that overrun it (the buffer grows)
   or fall short of it (the result is trimmed) still produce exactly the
   bytes they wrote. *)
let qcheck_encode_any_hint =
  QCheck.Test.make ~name:"encode is exact under any size hint" ~count:300
    QCheck.(pair (int_bound 600) (small_list (string_of_size Gen.(0 -- 200))))
    (fun (hint, parts) ->
      let write e = List.iter (Wire.string e) parts in
      let reference =
        String.concat ""
          (List.map (fun p -> Wire.encode (fun e -> Wire.string e p)) parts)
      in
      String.equal (Wire.encode ~size_hint:hint write) reference
      && String.equal
           (Wire.encode ~size_hint:(String.length reference) write)
           reference)

(* One retained encoder, rewound with [reset] and filled by the
   primitives (the path [Frame.seal_with] takes): the first assembly
   outgrows the 8-byte hint, and the second still sees only its own
   bytes. *)
let test_encoder_reuse () =
  let e = Wire.encoder ~size_hint:8 () in
  Wire.reset e;
  Wire.string e "first payload";
  Alcotest.(check (result string string))
    "first" (Ok "first payload")
    (Wire.decode (Wire.to_string e) Wire.read_string);
  Wire.reset e;
  Wire.u8 e 3;
  Wire.fixed e "abc";
  Alcotest.(check int) "length" 4 (Wire.length e);
  Alcotest.(check string) "manual assembly" "\x03abc" (Wire.to_string e)

let test_read_fixed_and_skip () =
  let payload = String.make 4096 'p' in
  (* Whole-buffer read_fixed must return the original string unchanged
     (zero-copy fast path). *)
  (match Wire.decode payload (fun d -> Wire.read_fixed d (String.length payload)) with
  | Ok s -> Alcotest.(check bool) "zero-copy" true (s == payload)
  | Error e -> Alcotest.fail e);
  (* skip + partial read_fixed. *)
  let enc = "hdr" ^ payload in
  (match
     Wire.decode enc (fun d ->
         Wire.skip d 3;
         Wire.read_fixed d (String.length payload))
   with
  | Ok s -> Alcotest.(check string) "after skip" payload s
  | Error e -> Alcotest.fail e);
  (* skip past the end must fail, not crash. *)
  match Wire.decode "ab" (fun d -> Wire.skip d 3; Wire.read_u8 d) with
  | Ok _ -> Alcotest.fail "skip past end accepted"
  | Error _ -> ()

let test_string_roundtrip () =
  List.iter
    (fun s ->
      let enc = Wire.encode (fun e -> Wire.string e s) in
      match Wire.decode enc Wire.read_string with
      | Ok s' -> Alcotest.(check string) "roundtrip" s s'
      | Error e -> Alcotest.fail e)
    [ ""; "x"; String.make 1000 'q'; "\x00\xff\x80" ]

let test_composite_roundtrip () =
  let enc =
    Wire.encode (fun e ->
        Wire.bool e true;
        Wire.list e (Wire.string e) [ "a"; "bb"; "" ];
        Wire.option e (Wire.varint e) (Some 42);
        Wire.option e (Wire.varint e) None;
        Wire.u8 e 200)
  in
  match
    Wire.decode enc (fun d ->
        let b = Wire.read_bool d in
        let xs = Wire.read_list d Wire.read_string in
        let o1 = Wire.read_option d Wire.read_varint in
        let o2 = Wire.read_option d Wire.read_varint in
        let u = Wire.read_u8 d in
        (b, xs, o1, o2, u))
  with
  | Ok (b, xs, o1, o2, u) ->
      Alcotest.(check bool) "bool" true b;
      Alcotest.(check (list string)) "list" [ "a"; "bb"; "" ] xs;
      Alcotest.(check (option int)) "some" (Some 42) o1;
      Alcotest.(check (option int)) "none" None o2;
      Alcotest.(check int) "u8" 200 u
  | Error e -> Alcotest.fail e

let test_decode_trailing_bytes () =
  let enc = Wire.encode (fun e -> Wire.varint e 1) ^ "junk" in
  match Wire.decode enc Wire.read_varint with
  | Ok _ -> Alcotest.fail "expected trailing-bytes error"
  | Error _ -> ()

let test_decode_truncated () =
  let enc = Wire.encode (fun e -> Wire.string e "hello") in
  let cut = String.sub enc 0 (String.length enc - 2) in
  match Wire.decode cut Wire.read_string with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

let test_decode_hostile_list_length () =
  (* A list claiming 2^40 elements must not allocate or loop. *)
  let enc = Wire.encode (fun e -> Wire.varint e (1 lsl 40)) in
  match Wire.decode enc (fun d -> Wire.read_list d Wire.read_varint) with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

let test_decode_overlong_varint () =
  let hostile = String.make 12 '\xff' in
  match Wire.decode hostile Wire.read_varint with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      match Frame.unseal (Frame.seal payload) with
      | Ok p -> Alcotest.(check string) "roundtrip" payload p
      | Error _ -> Alcotest.fail "unseal failed")
    [ ""; "x"; String.make 4096 'z'; "\x00\x01\x02" ]

let test_frame_detects_corruption () =
  let frame = Bytes.of_string (Frame.seal "important payload") in
  (* Flip one bit in the payload area. *)
  let i = Bytes.length frame - 3 in
  Bytes.set frame i (Char.chr (Char.code (Bytes.get frame i) lxor 0x10));
  match Frame.unseal (Bytes.to_string frame) with
  | Error `Corrupt -> ()
  | Error `Malformed -> Alcotest.fail "expected Corrupt, got Malformed"
  | Ok _ -> Alcotest.fail "corruption not detected"

let test_frame_detects_header_damage () =
  let frame = Frame.seal "payload" in
  let broken = "XXXX" ^ String.sub frame 4 (String.length frame - 4) in
  (match Frame.unseal broken with
  | Error `Malformed -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  match Frame.unseal (String.sub frame 0 (Frame.overhead - 1)) with
  | Error `Malformed -> ()
  | _ -> Alcotest.fail "short frame accepted"

let test_frame_rejects_truncated_payload () =
  let frame = Frame.seal "0123456789" in
  match Frame.unseal (String.sub frame 0 (String.length frame - 1)) with
  | Error `Malformed -> ()
  | _ -> Alcotest.fail "truncated frame accepted"

let qcheck_wire_string_list =
  QCheck.Test.make ~name:"wire list<string> roundtrip" ~count:300
    QCheck.(list (string_of_size QCheck.Gen.(0 -- 50)))
    (fun xs ->
      let enc = Wire.encode (fun e -> Wire.list e (Wire.string e) xs) in
      Wire.decode enc (fun d -> Wire.read_list d Wire.read_string) = Ok xs)

let qcheck_wire_never_raises =
  QCheck.Test.make ~name:"decoder total on random bytes" ~count:500
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      match
        Wire.decode s (fun d ->
            let _ = Wire.read_varint d in
            let _ = Wire.read_string d in
            Wire.read_list d Wire.read_bool)
      with
      | Ok _ | Error _ -> true)

let qcheck_zigzag_total =
  QCheck.Test.make ~name:"zigzag total on full int range" ~count:1000
    QCheck.(
      let open Gen in
      make ~print:string_of_int
        (oneof
           [
             oneofl [ min_int; min_int + 1; max_int; 0; 1; -1 ];
             map (fun (a, b) -> (a lsl 32) lxor b) (pair int int);
             int;
           ]))
    (fun n ->
      let enc = Wire.encode (fun e -> Wire.zigzag e n) in
      Wire.decode enc Wire.read_zigzag = Ok n)

let qcheck_frame_roundtrip =
  QCheck.Test.make ~name:"frame roundtrip" ~count:300
    QCheck.(string_of_size Gen.(0 -- 256))
    (fun s -> Frame.unseal (Frame.seal s) = Ok s)

(* [off + len] wraps negative for [len = max_int]: the window must still
   be refused, not accepted with 2^62 bytes remaining. *)
let test_decoder_sub_huge_length () =
  Alcotest.check_raises "len = max_int" (Invalid_argument "Wire.decoder_sub")
    (fun () -> ignore (Wire.decoder_sub "abcdefgh" ~off:1 ~len:max_int));
  Alcotest.check_raises "off past the end" (Invalid_argument "Wire.decoder_sub")
    (fun () -> ignore (Wire.decoder_sub "abcdefgh" ~off:9 ~len:0));
  Alcotest.(check int) "whole tail accepted" 7
    (Wire.remaining (Wire.decoder_sub "abcdefgh" ~off:1 ~len:7))

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "codec.wire",
      [
        tc "varint roundtrip" test_varint_roundtrip;
        tc "varint negative rejected" test_varint_negative_rejected;
        tc "zigzag roundtrip" test_zigzag_roundtrip;
        tc "zigzag extremes" test_zigzag_extremes;
        tc "varint rejection is precise" test_varint_rejection_is_precise;
        tc "varint negative result rejected" test_varint_negative_result_rejected;
        tc "encoded sizes" test_encoded_sizes;
        tc "exact-size encode is stable" test_exact_encode_is_stable;
        QCheck_alcotest.to_alcotest qcheck_encode_any_hint;
        tc "encoder reuse" test_encoder_reuse;
        tc "read_fixed + skip" test_read_fixed_and_skip;
        tc "string roundtrip" test_string_roundtrip;
        tc "composite roundtrip" test_composite_roundtrip;
        tc "trailing bytes" test_decode_trailing_bytes;
        tc "truncated input" test_decode_truncated;
        tc "hostile list length" test_decode_hostile_list_length;
        tc "overlong varint" test_decode_overlong_varint;
        tc "decoder_sub rejects huge lengths" test_decoder_sub_huge_length;
        QCheck_alcotest.to_alcotest qcheck_wire_string_list;
        QCheck_alcotest.to_alcotest qcheck_zigzag_total;
        QCheck_alcotest.to_alcotest qcheck_wire_never_raises;
      ] );
    ( "codec.frame",
      [
        tc "roundtrip" test_frame_roundtrip;
        tc "detects corruption" test_frame_detects_corruption;
        tc "detects header damage" test_frame_detects_header_damage;
        tc "rejects truncated payload" test_frame_rejects_truncated_payload;
        QCheck_alcotest.to_alcotest qcheck_frame_roundtrip;
      ] );
  ]
