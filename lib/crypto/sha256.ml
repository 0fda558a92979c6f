(* SHA-256 per FIPS 180-4. The block compression is C
   ([Native.sha256_compress]): the x86 SHA extensions where the CPU has
   them, portable C otherwise. This module owns the streaming context's
   buffering, padding and midstates; the kernel only ever sees whole
   64-byte blocks, and a multi-block [update_bytes] crosses into C once.
   A one-shot [digest] and the HMAC passes over two saved midstates are
   one C call each, with no context on the OCaml heap. The test suite keeps
   the Int32 transcription ([test/sha256_ref.ml]) as a
   differential-testing oracle for both kernels. *)

type kernel = Native.sha256_kernel

let digest_length = 32

(* Asked once: the CPU does not change under a running process. *)
let selected = if Native.has_sha_ni () then Native.Sha_ni else Native.Sha256_portable

type ctx = {
  h : int array; (* 8 state words, each < 2^32 *)
  block : Bytes.t; (* 64-byte buffer *)
  mutable fill : int; (* bytes currently in [block]; always < 64 *)
  mutable length : int; (* total message bytes absorbed *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    block = Bytes.create 64;
    fill = 0;
    length = 0;
  }

let update_bytes_with kernel ctx src ~off ~len =
  (* [off + len] would wrap for huge [len]; the difference cannot. *)
  if off < 0 || len < 0 || len > Bytes.length src - off then
    invalid_arg "Sha256.update_bytes";
  ctx.length <- ctx.length + len;
  (* Top up a partial block first. *)
  let take = if ctx.fill > 0 then Int.min len (64 - ctx.fill) else 0 in
  if take > 0 then begin
    Bytes.blit src off ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    if ctx.fill = 64 then begin
      Native.sha256_compress kernel ctx.h ctx.block 0 1;
      ctx.fill <- 0
    end
  end;
  let off = off + take and len = len - take in
  let blocks = len / 64 in
  if blocks > 0 then Native.sha256_compress kernel ctx.h src off blocks;
  let tail = len - (64 * blocks) in
  if tail > 0 then begin
    Bytes.blit src (off + (64 * blocks)) ctx.block 0 tail;
    ctx.fill <- tail
  end

let finalize_with kernel ctx =
  let bit_length = ctx.length * 8 in
  (* Append 0x80, zero padding, then the 64-bit big-endian length — written
     in place into the context's block buffer, no tail allocation. *)
  let fill = ctx.fill in
  Bytes.set ctx.block fill '\x80';
  if fill + 1 + 8 <= 64 then Bytes.fill ctx.block (fill + 1) (55 - fill) '\x00'
  else begin
    Bytes.fill ctx.block (fill + 1) (63 - fill) '\x00';
    Native.sha256_compress kernel ctx.h ctx.block 0 1;
    Bytes.fill ctx.block 0 56 '\x00'
  end;
  Bytes.set_int64_be ctx.block 56 (Int64.of_int bit_length);
  Native.sha256_compress kernel ctx.h ctx.block 0 1;
  ctx.fill <- 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let update_bytes ctx src ~off ~len = update_bytes_with selected ctx src ~off ~len

let update ctx s =
  update_bytes ctx (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let finalize ctx = finalize_with selected ctx

(* A midstate is the chaining value after a whole number of blocks: the
   eight state words big-endian, then the absorbed byte count as a 64-bit
   big-endian integer. It is an immutable string, so one saved prefix
   (an HMAC key pad) can be resumed from any number of times, on any
   domain. *)
let midstate_length = 40

let midstate ctx =
  if ctx.fill <> 0 then invalid_arg "Sha256.midstate: not on a block boundary";
  let out = Bytes.create midstate_length in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.set_int64_be out 32 (Int64.of_int ctx.length);
  Bytes.unsafe_to_string out

let resume m =
  if String.length m <> midstate_length then invalid_arg "Sha256.resume";
  let ctx = init () in
  for i = 0 to 7 do
    ctx.h.(i) <- Int32.to_int (String.get_int32_be m (4 * i)) land 0xffffffff
  done;
  ctx.length <- Int64.to_int (String.get_int64_be m 32);
  ctx

let digest_with kernel s =
  let out = Bytes.create digest_length in
  Native.sha256_digest kernel s out;
  Bytes.unsafe_to_string out

let digest s = digest_with selected s

let digest_list parts =
  let ctx = init () in
  List.iter (update ctx) parts;
  finalize ctx

let hex s = Bp_util.Hex.encode (digest s)

module Kernel = struct
  type t = kernel

  let name = function Native.Sha256_portable -> "portable" | Native.Sha_ni -> "sha-ni"

  let available =
    match selected with
    | Native.Sha_ni -> [ Native.Sha256_portable; Native.Sha_ni ]
    | Native.Sha256_portable -> [ Native.Sha256_portable ]

  let selected = selected
  let update_bytes = update_bytes_with
  let finalize = finalize_with
  let digest = digest_with

  let check_midstates ~inner ~outer =
    if String.length inner <> midstate_length || String.length outer <> midstate_length
    then invalid_arg "Sha256.Kernel.hmac: not a midstate"

  let hmac kernel ~inner ~outer msg =
    check_midstates ~inner ~outer;
    let out = Bytes.create digest_length in
    Native.hmac_sha256 kernel inner outer msg out;
    Bytes.unsafe_to_string out

  let hmac_equal kernel ~inner ~outer msg ~tag =
    check_midstates ~inner ~outer;
    Native.hmac_sha256_verify kernel inner outer msg tag
end
