(* CRC-32 (IEEE 802.3, zlib variant). The register update is C
   ([Native.crc32_update]): a PCLMULQDQ folding kernel where the CPU has
   carry-less multiply, and portable slicing-by-8 otherwise and for the
   last few bytes. This module owns the bounds check and the initial and
   final inversion. The public API stays [int32] so checksums round-trip
   through the 4-byte wire field. The test suite keeps a bitwise
   transcription as a differential-testing oracle for both kernels. *)

type kernel = Native.crc32_kernel

(* Asked once: the CPU does not change under a running process. *)
let selected =
  if Native.has_pclmul () then Native.Pclmulqdq else Native.Crc32_portable

let empty = 0l

let update_with kernel crc buf ~off ~len =
  (* [off + len] would wrap for huge [len]; the difference cannot. *)
  if off < 0 || len < 0 || len > Bytes.length buf - off then
    invalid_arg "Crc32.update";
  let reg = Int32.to_int crc land 0xffffffff lxor 0xffffffff in
  Int32.of_int (Native.crc32_update kernel reg buf off len lxor 0xffffffff)

let update crc buf ~off ~len = update_with selected crc buf ~off ~len

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
   eagerly at module initialization rather than under [lazy]: worker
   domains combine checksums concurrently, and a shared lazy thunk forced
   from two domains at once raises [Lazy.RacyLazy]. Nothing writes it
   after initialization, so it is a constant, not module state (hence
   the R8 allow on the array filled in place). *)
let x2n_table =
  let t = (Array.make 32 (1 lsl 30) [@bplint.allow "R8-harnessglobal"]) (* x^1 *) in
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

type shift = int

(* x2nmodp len 3 = x^(8 * len): one factor of x per appended bit. *)
let shift len =
  if len < 0 then invalid_arg "Crc32.shift";
  x2nmodp len 3

let combine_shift crc1 crc2 shift =
  Int32.of_int
    (multmodp shift (Int32.to_int crc1 land 0xffffffff)
    lxor (Int32.to_int crc2 land 0xffffffff))

let combine crc1 crc2 len2 =
  if len2 < 0 then invalid_arg "Crc32.combine";
  if len2 = 0 then crc1 else combine_shift crc1 crc2 (shift len2)

module Kernel = struct
  type t = kernel

  let name = function
    | Native.Crc32_portable -> "portable"
    | Native.Pclmulqdq -> "pclmulqdq"

  let available =
    match selected with
    | Native.Pclmulqdq -> [ Native.Crc32_portable; Native.Pclmulqdq ]
    | Native.Crc32_portable -> [ Native.Crc32_portable ]

  let selected = selected
  let update = update_with
end
