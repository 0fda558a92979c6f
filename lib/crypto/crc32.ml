(* CRC-32 (IEEE 802.3, zlib variant), one input byte per step through a
   256-entry table. No timed path checksums frames any more (they are
   accounted by length and built only when read), so the plain loop is
   all the speed the checksum needs. The public API stays [int32] so
   checksums round-trip through the 4-byte wire field. The test suite
   keeps a bitwise transcription as a differential-testing oracle. *)

(* zlib's reflected polynomial: bit 31 is x^0. *)
let poly = 0xedb88320

(* The register after eight shift-and-reduce steps from [b]. *)
let entry b =
  let c = ref b in
  for _ = 1 to 8 do
    c := if !c land 1 = 1 then (!c lsr 1) lxor poly else !c lsr 1
  done;
  !c

(* [entry b] for every byte value [b], as four little-endian bytes at
   [4 * b]. A string, so the table is an immutable constant that any
   number of domains read at once. *)
let table =
  String.init 1024 (fun i -> Char.chr ((entry (i lsr 2) lsr (8 * (i land 3))) land 0xff))

let empty = 0l

let update crc buf ~off ~len =
  (* [off + len] would wrap for huge [len]; the difference cannot. *)
  if off < 0 || len < 0 || len > Bytes.length buf - off then
    invalid_arg "Crc32.update";
  let c = ref (Int32.to_int crc land 0xffffffff lxor 0xffffffff) in
  for i = off to off + len - 1 do
    let b = (!c lxor Char.code (Bytes.unsafe_get buf i)) land 0xff in
    c := Int32.to_int (String.get_int32_le table (b lsl 2)) land 0xffffffff lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xffffffff)

let bytes buf ~off ~len = update empty buf ~off ~len

let string s = bytes (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)
