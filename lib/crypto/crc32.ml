(* CRC-32 (IEEE 802.3, zlib variant) on untagged native-int arithmetic.
   The tables and accumulator are plain [int]s; the hot loop is the
   slicing-by-8 formulation — eight bytes per iteration, eight table
   loads and seven xors, no boxing. The public API stays [int32] so
   checksums round-trip through the 4-byte wire field.

   The tables are built eagerly at module initialization (8 x 256 ints,
   16 KiB) rather than under [lazy]: worker domains of the experiment
   pool checksum frames concurrently, and a shared lazy thunk forced
   from two domains at once raises [Lazy.RacyLazy]. *)

let t0 =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xedb88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

(* tables.(k).(b) = CRC of byte [b] followed by [k] zero bytes, so eight
   single-byte steps collapse into one lookup per input byte. *)
let tables =
  let t = Array.make 8 t0 in
  for k = 1 to 7 do
    t.(k) <-
      Array.map (fun prev -> Array.unsafe_get t0 (prev land 0xff) lxor (prev lsr 8)) t.(k - 1)
  done;
  t

let empty = 0l

let update crc buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Crc32.update";
  let t1 = tables.(1) and t2 = tables.(2) and t3 = tables.(3) in
  let t4 = tables.(4) and t5 = tables.(5) and t6 = tables.(6) in
  let t7 = tables.(7) in
  let c = ref (Int32.to_int crc land 0xffffffff lxor 0xffffffff) in
  let i = ref off in
  let limit = off + len - 7 in
  while !i < limit do
    let p = !i in
    let b0 = Char.code (Bytes.unsafe_get buf p)
    and b1 = Char.code (Bytes.unsafe_get buf (p + 1))
    and b2 = Char.code (Bytes.unsafe_get buf (p + 2))
    and b3 = Char.code (Bytes.unsafe_get buf (p + 3)) in
    let b4 = Char.code (Bytes.unsafe_get buf (p + 4))
    and b5 = Char.code (Bytes.unsafe_get buf (p + 5))
    and b6 = Char.code (Bytes.unsafe_get buf (p + 6))
    and b7 = Char.code (Bytes.unsafe_get buf (p + 7)) in
    (* The running CRC only mixes into the first word; the second word is
       raw input shifted eight bytes further through the polynomial. *)
    let lo = !c lxor (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)) in
    c :=
      Array.unsafe_get t7 (lo land 0xff)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xff)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xff)
      lxor Array.unsafe_get t4 ((lo lsr 24) land 0xff)
      lxor Array.unsafe_get t3 b4
      lxor Array.unsafe_get t2 b5
      lxor Array.unsafe_get t1 b6
      lxor Array.unsafe_get t0 b7;
    i := p + 8
  done;
  for j = !i to off + len - 1 do
    c :=
      Array.unsafe_get t0
        ((!c lxor Char.code (Bytes.unsafe_get buf j)) land 0xff)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xffffffff)

let bytes buf ~off ~len = update empty buf ~off ~len

let string s = bytes (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

(* CRC combination: crc(A ++ B) from crc(A), crc(B) and |B|. Appending
   |B| zero bytes to A multiplies its CRC register by x^(8|B|) modulo the
   polynomial, so combining is one modular multiply by that power. This is
   zlib 1.2.12's construction: polynomials are 32-bit words in the CRC's
   reflected order (bit 31 = x^0), and [x2n_table.(k)] = x^(2^k) mod p
   assembles x^n from the set bits of n. Valid here because the checksum
   above uses zlib's exact reflected polynomial, init and final xor. *)

let poly = 0xedb88320

(* a * b mod p: walk a's terms from x^0 upward (shifting a left), adding
   b for each term present and multiplying b by x at each step, until no
   term of a is left. Both conditionals are masks rather than branches:
   the bits are data-dependent, and mispredicted branches would cost more
   than the arithmetic. *)
let multmodp a b =
  let p = ref 0 and a = ref a and b = ref b in
  while !a <> 0 do
    p := !p lxor (!b land -((!a lsr 31) land 1));
    a := (!a lsl 1) land 0xffffffff;
    b := (!b lsr 1) lxor (poly land -(!b land 1))
  done;
  !p

(* x^(2^k) mod p for k < 32. The multiplicative order of x divides
   2^32 - 1, so x^(2^32) = x and exponents past 31 wrap around. Built
   eagerly, like the CRC tables, for the same cross-domain reason. *)
let x2n_table =
  let t = Array.make 32 (1 lsl 30) (* x^1 *) in
  for k = 1 to 31 do
    t.(k) <- multmodp t.(k - 1) t.(k - 1)
  done;
  t

(* x^(n * 2^k) mod p. The running power goes first in [multmodp]: the
   loop there stops after the first argument's highest-degree term, so
   the first factor, multiplied into x^0, costs one step. *)
let x2nmodp n k =
  let p = ref (1 lsl 31) (* x^0 *) and n = ref n and k = ref k in
  while !n <> 0 do
    if !n land 1 <> 0 then p := multmodp !p (Array.unsafe_get x2n_table (!k land 31));
    n := !n lsr 1;
    incr k
  done;
  !p

let combine crc1 crc2 len2 =
  if len2 < 0 then invalid_arg "Crc32.combine";
  if len2 = 0 then crc1
  else
    (* x2nmodp len2 3 = x^(8 * len2): one factor of x per appended bit. *)
    Int32.of_int
      (multmodp (x2nmodp len2 3) (Int32.to_int crc1 land 0xffffffff)
      lxor (Int32.to_int crc2 land 0xffffffff))
