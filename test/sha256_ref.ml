(* Reference SHA-256 per FIPS 180-4, kept verbatim from the original
   boxed-Int32 implementation. [Bp_crypto.Sha256] is the optimized production
   module; this one exists only as the test suite's differential-testing
   oracle (every word is an [Int32], matching the specification
   literally). Do not optimize it. *)

let k =
  [|
    0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
    0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
    0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
    0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
    0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
    0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
    0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
    0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
    0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
    0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
    0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
    0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
    0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
  |]

type ctx = {
  h : int32 array; (* 8 state words *)
  block : Bytes.t; (* 64-byte buffer *)
  mutable fill : int; (* bytes currently in [block] *)
  mutable length : int64; (* total message bytes absorbed *)
  w : int32 array; (* message schedule scratch *)
}

let init () =
  {
    h =
      [|
        0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
        0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l;
      |];
    block = Bytes.create 64;
    fill = 0;
    length = 0L;
    w = Array.make 64 0l;
  }

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

let ( +% ) = Int32.add
let ( ^% ) = Int32.logxor
let ( &% ) = Int32.logand

let word_at b off =
  let byte i = Int32.of_int (Char.code (Bytes.unsafe_get b (off + i))) in
  Int32.logor
    (Int32.shift_left (byte 0) 24)
    (Int32.logor
       (Int32.shift_left (byte 1) 16)
       (Int32.logor (Int32.shift_left (byte 2) 8) (byte 3)))

let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    w.(i) <- word_at block (off + (4 * i))
  done;
  for i = 16 to 63 do
    let s0 = rotr w.(i - 15) 7 ^% rotr w.(i - 15) 18 ^% Int32.shift_right_logical w.(i - 15) 3 in
    let s1 = rotr w.(i - 2) 17 ^% rotr w.(i - 2) 19 ^% Int32.shift_right_logical w.(i - 2) 10 in
    w.(i) <- w.(i - 16) +% s0 +% w.(i - 7) +% s1
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 ^% rotr !e 11 ^% rotr !e 25 in
    let ch = (!e &% !f) ^% (Int32.lognot !e &% !g) in
    let temp1 = !hh +% s1 +% ch +% k.(i) +% w.(i) in
    let s0 = rotr !a 2 ^% rotr !a 13 ^% rotr !a 22 in
    let maj = (!a &% !b) ^% (!a &% !c) ^% (!b &% !c) in
    let temp2 = s0 +% maj in
    hh := !g;
    g := !f;
    f := !e;
    e := !d +% temp1;
    d := !c;
    c := !b;
    b := !a;
    a := temp1 +% temp2
  done;
  h.(0) <- h.(0) +% !a;
  h.(1) <- h.(1) +% !b;
  h.(2) <- h.(2) +% !c;
  h.(3) <- h.(3) +% !d;
  h.(4) <- h.(4) +% !e;
  h.(5) <- h.(5) +% !f;
  h.(6) <- h.(6) +% !g;
  h.(7) <- h.(7) +% !hh

let update_bytes ctx src ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Sha256.update_bytes";
  ctx.length <- Int64.add ctx.length (Int64.of_int len);
  let pos = ref off and remaining = ref len in
  (* Fill a partial block first. *)
  if ctx.fill > 0 then begin
    let take = min !remaining (64 - ctx.fill) in
    Bytes.blit src !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.fill = 64 then begin
      compress ctx ctx.block 0;
      ctx.fill <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx src !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit src !pos ctx.block 0 !remaining;
    ctx.fill <- !remaining
  end

let update ctx s =
  update_bytes ctx (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let finalize ctx =
  let bit_length = Int64.mul ctx.length 8L in
  (* Append 0x80, zero padding, then the 64-bit big-endian length. *)
  let pad_len =
    let rem = (ctx.fill + 1 + 8) mod 64 in
    if rem = 0 then 1 else 1 + (64 - rem)
  in
  let tail = Bytes.make (pad_len + 8) '\x00' in
  Bytes.set tail 0 '\x80';
  for i = 0 to 7 do
    let shift = 8 * (7 - i) in
    Bytes.set tail (pad_len + i)
      (Char.chr (Int64.to_int (Int64.shift_right_logical bit_length shift) land 0xff))
  done;
  (* Bypass the length accounting: padding is not message content. *)
  let absorb b =
    let pos = ref 0 in
    let len = Bytes.length b in
    while !pos < len do
      let take = min (len - !pos) (64 - ctx.fill) in
      Bytes.blit b !pos ctx.block ctx.fill take;
      ctx.fill <- ctx.fill + take;
      pos := !pos + take;
      if ctx.fill = 64 then begin
        compress ctx ctx.block 0;
        ctx.fill <- 0
      end
    done
  in
  absorb tail;
  assert (ctx.fill = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let word = ctx.h.(i) in
    for j = 0 to 3 do
      Bytes.set out ((4 * i) + j)
        (Char.chr (Int32.to_int (Int32.shift_right_logical word (8 * (3 - j))) land 0xff))
    done
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let digest_list parts =
  let ctx = init () in
  List.iter (update ctx) parts;
  finalize ctx

let hex s = Bp_util.Hex.encode (digest s)

let digest_length = 32
