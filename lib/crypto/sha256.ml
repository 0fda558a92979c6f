(* SHA-256 per FIPS 180-4 on untagged native-int arithmetic.

   Every 32-bit word lives in OCaml's native [int] (63-bit on 64-bit
   platforms), masked back to 32 bits only where a carry could propagate
   upward. This removes the boxed-[Int32] allocation per arithmetic step
   that dominated the original [compress]; the message schedule is a
   preallocated scratch array in the context, so steady-state hashing
   allocates nothing per block. The test suite keeps the Int32
   transcription ([test/sha256_ref.ml]) as a differential-testing
   oracle. *)

let mask = 0xffffffff

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
    0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
    0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
    0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
    0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
    0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
    0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
    0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
    0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
    0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
    0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words, each < 2^32 *)
  block : Bytes.t; (* 64-byte buffer *)
  mutable fill : int; (* bytes currently in [block]; always < 64 *)
  mutable length : int; (* total message bytes absorbed *)
  w : int array; (* message schedule scratch *)
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
    w = Array.make 64 0;
  }

(* Working values are allowed to carry garbage above bit 31: additions,
   [lxor] and [land] never let high bits contaminate the low 32, so masking
   is deferred to the few places a right shift would pull garbage down.
   Rotations use the "doubled word" form [y = (x land mask) lor (x lsl 32)]
   — with the low 32 bits replicated at bits 32..62, every rotation by
   1..31 is a single [lsr] of [y] (the result's own high garbage is again
   harmless). The round loop is unrolled 8-up with variable renaming, so
   the classic (non-flambda) compiler keeps the state in registers instead
   of shuffling eight refs per round. *)
let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    let o = off + (4 * i) in
    Array.unsafe_set w i
      ((Char.code (Bytes.unsafe_get block o) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (o + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (o + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (o + 3)))
  done;
  (* Schedule words are stored pre-masked, so both σ inputs below are
     already clean 32-bit values: the doubled form is two ops, and the
     plain right shifts need no mask of their own. *)
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let xd = x lor (x lsl 32) and yd = y lor (y lsl 32) in
    let s0 = (xd lsr 7) lxor (xd lsr 18) lxor (x lsr 3) in
    let s1 = (yd lsr 17) lxor (yd lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask)
  done;
  let h = ctx.h in
  let a = ref (Array.unsafe_get h 0) and b = ref (Array.unsafe_get h 1) in
  let c = ref (Array.unsafe_get h 2) and d = ref (Array.unsafe_get h 3) in
  let e = ref (Array.unsafe_get h 4) and f = ref (Array.unsafe_get h 5) in
  let g = ref (Array.unsafe_get h 6) and hh = ref (Array.unsafe_get h 7) in
  for group = 0 to 7 do
    let i = group * 8 in
    let a0 = !a and b0 = !b and c0 = !c and d0 = !d in
    let e0 = !e and f0 = !f and g0 = !g and h0 = !hh in
    (* One round: consumes (a..h) at offset [j], yields d' and h'; the
       other six values pass through renamed. *)
    let ed = (e0 land mask) lor (e0 lsl 32) in
    let s1 = (ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25) in
    let ch = g0 lxor (e0 land (f0 lxor g0)) in
    let t1 = s1 + ch + (h0 + Array.unsafe_get k i + Array.unsafe_get w i) in
    let ad = (a0 land mask) lor (a0 lsl 32) in
    let s0 = (ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22) in
    let mj = (a0 land b0) lor (c0 land (a0 lor b0)) in
    let d1 = d0 + t1 and h1 = t1 + s0 + mj in

    let ed = (d1 land mask) lor (d1 lsl 32) in
    let s1 = (ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25) in
    let ch = f0 lxor (d1 land (e0 lxor f0)) in
    let t1 = s1 + ch + (g0 + Array.unsafe_get k (i + 1) + Array.unsafe_get w (i + 1)) in
    let ad = (h1 land mask) lor (h1 lsl 32) in
    let s0 = (ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22) in
    let mj = (h1 land a0) lor (b0 land (h1 lor a0)) in
    let c1 = c0 + t1 and g1 = t1 + s0 + mj in

    let ed = (c1 land mask) lor (c1 lsl 32) in
    let s1 = (ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25) in
    let ch = e0 lxor (c1 land (d1 lxor e0)) in
    let t1 = s1 + ch + (f0 + Array.unsafe_get k (i + 2) + Array.unsafe_get w (i + 2)) in
    let ad = (g1 land mask) lor (g1 lsl 32) in
    let s0 = (ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22) in
    let mj = (g1 land h1) lor (a0 land (g1 lor h1)) in
    let b1 = b0 + t1 and f1 = t1 + s0 + mj in

    let ed = (b1 land mask) lor (b1 lsl 32) in
    let s1 = (ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25) in
    let ch = d1 lxor (b1 land (c1 lxor d1)) in
    let t1 = s1 + ch + (e0 + Array.unsafe_get k (i + 3) + Array.unsafe_get w (i + 3)) in
    let ad = (f1 land mask) lor (f1 lsl 32) in
    let s0 = (ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22) in
    let mj = (f1 land g1) lor (h1 land (f1 lor g1)) in
    let a1 = a0 + t1 and e1 = t1 + s0 + mj in

    let ed = (a1 land mask) lor (a1 lsl 32) in
    let s1 = (ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25) in
    let ch = c1 lxor (a1 land (b1 lxor c1)) in
    let t1 = s1 + ch + (d1 + Array.unsafe_get k (i + 4) + Array.unsafe_get w (i + 4)) in
    let ad = (e1 land mask) lor (e1 lsl 32) in
    let s0 = (ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22) in
    let mj = (e1 land f1) lor (g1 land (e1 lor f1)) in
    let h2 = h1 + t1 and d2 = t1 + s0 + mj in

    let ed = (h2 land mask) lor (h2 lsl 32) in
    let s1 = (ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25) in
    let ch = b1 lxor (h2 land (a1 lxor b1)) in
    let t1 = s1 + ch + (c1 + Array.unsafe_get k (i + 5) + Array.unsafe_get w (i + 5)) in
    let ad = (d2 land mask) lor (d2 lsl 32) in
    let s0 = (ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22) in
    let mj = (d2 land e1) lor (f1 land (d2 lor e1)) in
    let g2 = g1 + t1 and c2 = t1 + s0 + mj in

    let ed = (g2 land mask) lor (g2 lsl 32) in
    let s1 = (ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25) in
    let ch = a1 lxor (g2 land (h2 lxor a1)) in
    let t1 = s1 + ch + (b1 + Array.unsafe_get k (i + 6) + Array.unsafe_get w (i + 6)) in
    let ad = (c2 land mask) lor (c2 lsl 32) in
    let s0 = (ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22) in
    let mj = (c2 land d2) lor (e1 land (c2 lor d2)) in
    let f2 = f1 + t1 and b2 = t1 + s0 + mj in

    let ed = (f2 land mask) lor (f2 lsl 32) in
    let s1 = (ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25) in
    let ch = h2 lxor (f2 land (g2 lxor h2)) in
    let t1 = s1 + ch + (a1 + Array.unsafe_get k (i + 7) + Array.unsafe_get w (i + 7)) in
    let ad = (b2 land mask) lor (b2 lsl 32) in
    let s0 = (ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22) in
    let mj = (b2 land c2) lor (d2 land (b2 lor c2)) in
    let e2 = e1 + t1 and a2 = t1 + s0 + mj in

    a := a2;
    b := b2;
    c := c2;
    d := d2;
    e := e2;
    f := f2;
    g := g2;
    hh := h2
  done;
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + !a) land mask);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + !b) land mask);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + !c) land mask);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + !d) land mask);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + !e) land mask);
  Array.unsafe_set h 5 ((Array.unsafe_get h 5 + !f) land mask);
  Array.unsafe_set h 6 ((Array.unsafe_get h 6 + !g) land mask);
  Array.unsafe_set h 7 ((Array.unsafe_get h 7 + !hh) land mask)

let update_bytes ctx src ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Sha256.update_bytes";
  ctx.length <- ctx.length + len;
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
  let bit_length = ctx.length * 8 in
  (* Append 0x80, zero padding, then the 64-bit big-endian length — written
     in place into the context's block buffer, no tail allocation. *)
  let fill = ctx.fill in
  Bytes.set ctx.block fill '\x80';
  if fill + 1 + 8 <= 64 then Bytes.fill ctx.block (fill + 1) (55 - fill) '\x00'
  else begin
    Bytes.fill ctx.block (fill + 1) (63 - fill) '\x00';
    compress ctx ctx.block 0;
    Bytes.fill ctx.block 0 56 '\x00'
  end;
  Bytes.set_int64_be ctx.block 56 (Int64.of_int bit_length);
  compress ctx ctx.block 0;
  ctx.fill <- 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

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
    ctx.h.(i) <- Int32.to_int (String.get_int32_be m (4 * i)) land mask
  done;
  ctx.length <- Int64.to_int (String.get_int64_be m 32);
  ctx

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
