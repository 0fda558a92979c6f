(* The encoder is a growable Bytes buffer with an explicit length, not a
   [Buffer.t]: it can be reset and reused across messages (no allocation
   per message on steady-state paths) and created with a size hint so
   bulk encodes never reallocate mid-write. *)

type encoder = { mutable buf : Bytes.t; mutable len : int }

let encoder ?(size_hint = 128) () =
  { buf = Bytes.create (Int.max 16 size_hint); len = 0 }

let reset e = e.len <- 0
let length e = e.len
let to_string e = Bytes.sub_string e.buf 0 e.len
let unsafe_bytes e = e.buf

let grow e needed =
  let cap = ref (2 * Bytes.length e.buf) in
  while e.len + needed > !cap do
    cap := 2 * !cap
  done;
  let nbuf = Bytes.create !cap in
  Bytes.blit e.buf 0 nbuf 0 e.len;
  e.buf <- nbuf

let[@inline] ensure e n = if e.len + n > Bytes.length e.buf then grow e n

let[@inline] add_char e c =
  ensure e 1;
  Bytes.unsafe_set e.buf e.len c;
  e.len <- e.len + 1

let add_string e s =
  let n = String.length s in
  ensure e n;
  Bytes.blit_string s 0 e.buf e.len n;
  e.len <- e.len + n

(* Serializations started through {!encode}, the entrypoint that walks
   a message structure. Per-destination packet assembly that merely
   prepends a header to already-encoded bytes does not count, which is
   exactly what lets tests assert the encode-once broadcast property. *)
let encode_calls_counter = ref 0

let encode_calls () = !encode_calls_counter

(* Writes [n] as an unsigned 63-bit LEB128 varint: negative inputs are
   reinterpreted as their 63-bit two's-complement bit pattern (at most
   9 bytes). Only {!zigzag} feeds it negatives. Top-level recursion, so
   no closure is allocated per varint. *)
let rec varint_raw buf n =
  if n >= 0 && n < 0x80 then add_char buf (Char.unsafe_chr n)
  else begin
    add_char buf (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    varint_raw buf (n lsr 7)
  end

let varint buf n =
  if n < 0 then invalid_arg "Wire.varint: negative";
  varint_raw buf n

let zigzag buf n = varint_raw buf (n lsl 1 lxor (n asr (Sys.int_size - 1)))

let u8 buf n =
  if n < 0 || n > 255 then invalid_arg "Wire.u8: out of range";
  add_char buf (Char.unsafe_chr n)

let bool buf b = u8 buf (if b then 1 else 0)

let string buf s =
  varint buf (String.length s);
  add_string buf s

let fixed buf s = add_string buf s

(* Encoded lengths, for callers that know their message's exact size up
   front and pass it to {!encode} as the hint. *)
let rec varint_size_from n acc =
  if n >= 0 && n < 0x80 then acc else varint_size_from (n lsr 7) (acc + 1)

let varint_size n =
  if n < 0 then invalid_arg "Wire.varint_size: negative";
  varint_size_from n 1

let string_size s = varint_size (String.length s) + String.length s

let list buf enc xs =
  varint buf (List.length xs);
  List.iter enc xs

let option buf enc = function
  | None -> bool buf false
  | Some x ->
      bool buf true;
      enc x

(* The decoder reads through a Bytes view of the input (one bounds check
   against the cached length, then unsafe loads). [read_fixed] returns
   the original string without copying when the read spans the whole
   input — the bulk-payload case. *)
type decoder = { src : string; bytes : Bytes.t; len : int; mutable pos : int }

exception Malformed of string

let decoder src =
  { src; bytes = Bytes.unsafe_of_string src; len = String.length src; pos = 0 }

(* A window decoder shares the backing string: [len] is the window's end
   offset, so [remaining]/[at_end] confine every read to the window while
   reads index the original bytes directly — no [String.sub] up front. *)
let decoder_sub src ~off ~len =
  (* [off + len] would wrap for huge [len]; the difference cannot. *)
  if off < 0 || len < 0 || len > String.length src - off then
    invalid_arg "Wire.decoder_sub";
  { src; bytes = Bytes.unsafe_of_string src; len = off + len; pos = off }

let remaining d = d.len - d.pos
let at_end d = d.pos >= d.len

let fail msg = raise (Malformed msg)

let read_u8 d =
  if d.pos >= d.len then fail "u8: end of input";
  let c = Char.code (Bytes.unsafe_get d.bytes d.pos) in
  d.pos <- d.pos + 1;
  c

(* Unsigned 63-bit counterpart of {!varint_raw}: the full native-int bit
   pattern, so the result may be negative (zigzag of a negative number).
   Valid encodings span at most 9 bytes; a 10th byte cannot contribute
   any bits to a 63-bit int and is rejected. *)
let rec read_varint_from d shift acc =
  let b = read_u8 d in
  if shift >= 63 then fail "varint: exceeds 10 bytes (overflows 63-bit int)"
  else begin
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else read_varint_from d (shift + 7) acc
  end

let read_varint_raw d = read_varint_from d 0 0

let read_varint d =
  let v = read_varint_raw d in
  if v < 0 then fail "varint: overflows non-negative int";
  v

let read_zigzag d =
  let m = read_varint_raw d in
  m lsr 1 lxor - (m land 1)

let read_bool d =
  match read_u8 d with
  | 0 -> false
  | 1 -> true
  | n -> fail (Printf.sprintf "bool: invalid byte %d" n)

let read_fixed d n =
  if n < 0 || remaining d < n then fail "fixed: end of input";
  if n = d.len && d.pos = 0 && d.len = String.length d.src then begin
    (* The read is the entire input: hand back the original string. *)
    d.pos <- n;
    d.src
  end
  else begin
    let s = String.sub d.src d.pos n in
    d.pos <- d.pos + n;
    s
  end

let skip d n =
  if n < 0 || remaining d < n then fail "skip: end of input";
  d.pos <- d.pos + n

let read_string d =
  let n = read_varint d in
  read_fixed d n

let read_string_window d =
  let n = read_varint d in
  if remaining d < n then fail "fixed: end of input";
  let off = d.pos in
  d.pos <- d.pos + n;
  (off, n)

let read_list d elt =
  let n = read_varint d in
  if n > remaining d then fail "list: length exceeds input";
  List.init n (fun _ -> elt d)

let read_option d elt = if read_bool d then Some (elt d) else None

let run_reader d reader =
  match reader d with
  | v -> if at_end d then Ok v else Error "trailing bytes"
  | exception Malformed msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let decode src reader = run_reader (decoder src) reader

let decode_sub src ~off ~len reader =
  match decoder_sub src ~off ~len with
  | d -> run_reader d reader
  | exception Invalid_argument msg -> Error msg

(* The encoder is local to this call, so when the write filled its
   buffer exactly the buffer itself becomes the result: an exact
   [size_hint] costs one allocation and no final copy. A buffer with
   spare room (an inexact hint) is trimmed by copying, as before. *)
let encode ?size_hint f =
  incr encode_calls_counter;
  let e = encoder ?size_hint () in
  f e;
  if e.len = Bytes.length e.buf then Bytes.unsafe_to_string e.buf
  else to_string e
