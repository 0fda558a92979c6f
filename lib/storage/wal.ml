(* Each record is kept as its payload and its CRC, not as frame bytes:
   the payload string is the one the caller also holds (a unit node's
   Log_store entry), so the WAL adds a few words per record, not a
   second framed copy of the log. The image is assembled on demand, and
   is byte for byte the concatenation of [Frame.seal] of every record. *)

type record = { payload : string; crc : int32 }

type t = {
  mutable recs : record list; (* newest first *)
  mutable size : int; (* bytes of the image *)
}

let create () = { recs = []; size = 0 }

let append t payload =
  t.recs <- { payload; crc = Bp_crypto.Crc32.string payload } :: t.recs;
  t.size <- t.size + Bp_codec.Frame.overhead + String.length payload

let size t = t.size
let records t = List.rev_map (fun r -> r.payload) t.recs

let contents t =
  let image = Bytes.create t.size in
  (* Newest first, so fill from the end. *)
  ignore
    (List.fold_left
       (fun off r ->
         let off = off - Bp_codec.Frame.overhead - String.length r.payload in
         Bp_codec.Frame.seal_into image ~off ~crc:r.crc r.payload;
         off)
       t.size t.recs);
  Bytes.unsafe_to_string image

let of_contents image =
  let t = create () in
  let len = String.length image in
  let rec scan off =
    if off >= len then 0
    else
      match Bp_codec.Frame.unseal_prefix image ~off with
      | Ok (payload, consumed) ->
          append t payload;
          scan (off + consumed)
      | Error (`Corrupt | `Malformed) -> len - off
  in
  let discarded = scan 0 in
  (t, discarded)

let truncate_tail t n =
  let image = contents t in
  let keep = Stdlib.max 0 (String.length image - n) in
  fst (of_contents (String.sub image 0 keep))

let corrupt_byte t off =
  let image = Bytes.of_string (contents t) in
  if off < 0 || off >= Bytes.length image then invalid_arg "Wal.corrupt_byte";
  Bytes.set image off (Char.chr (Char.code (Bytes.get image off) lxor 0x40));
  fst (of_contents (Bytes.to_string image))
