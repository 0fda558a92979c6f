let magic = "BPF1"
let overhead = String.length magic + 4 + 4

let seal_into dst ~off payload =
  let plen = String.length payload in
  Bytes.blit_string magic 0 dst off 4;
  Bytes.set_int32_be dst (off + 4) (Int32.of_int plen);
  Bytes.set_int32_be dst (off + 8) (Bp_crypto.Crc32.string payload);
  Bytes.blit_string payload 0 dst (off + overhead) plen

(* One exactly-sized allocation per frame; the header words are written
   in place rather than through a Buffer. *)
let seal payload =
  let out = Bytes.create (overhead + String.length payload) in
  seal_into out ~off:0 payload;
  Bytes.unsafe_to_string out

(* Placeholder for the length and checksum words, patched after the
   payload is written. *)
let header_rest = String.make (overhead - 4) '\000'

(* Frame assembly without the intermediate payload string: the writer
   serializes the payload directly after the header inside [enc], then
   the length and CRC words are patched in place, and the frame is
   copied out of [enc]. Against encode-then-seal this drops one of two
   big allocations and one of three whole-payload moves. *)
let seal_with enc write =
  Wire.reset enc;
  Wire.fixed enc magic;
  Wire.fixed enc header_rest;
  write enc;
  let plen = Wire.length enc - overhead in
  (* Fetch the buffer only after the last write: growing reallocates. *)
  let buf = Wire.unsafe_bytes enc in
  Bytes.set_int32_be buf 4 (Int32.of_int plen);
  Bytes.set_int32_be buf 8 (Bp_crypto.Crc32.bytes buf ~off:overhead ~len:plen);
  Wire.to_string enc

(* Validation without payload extraction: callers that can decode from a
   window (see {!Wire.decoder_sub}) skip the [String.sub] copy entirely. *)
let unseal_sub buf ~off =
  if off < 0 || String.length buf - off < overhead then Error `Malformed
  else if
    not
      (String.unsafe_get buf off = 'B'
      && String.unsafe_get buf (off + 1) = 'P'
      && String.unsafe_get buf (off + 2) = 'F'
      && String.unsafe_get buf (off + 3) = '1')
  then Error `Malformed
  else begin
    let len = Int32.to_int (String.get_int32_be buf (off + 4)) in
    if len < 0 || String.length buf - off < overhead + len then Error `Malformed
    else begin
      let crc = String.get_int32_be buf (off + 8) in
      (* Checksum the payload in place; nothing is copied on any path. *)
      let actual =
        Bp_crypto.Crc32.bytes (Bytes.unsafe_of_string buf) ~off:(off + overhead)
          ~len
      in
      if actual = crc then Ok (off + overhead, len) else Error `Corrupt
    end
  end

let unseal_prefix buf ~off =
  match unseal_sub buf ~off with
  | Error _ as e -> e
  | Ok (poff, plen) -> Ok (String.sub buf poff plen, poff - off + plen)

let unseal frame =
  match unseal_prefix frame ~off:0 with
  | Error _ as e -> e
  | Ok (payload, consumed) ->
      if consumed = String.length frame then Ok payload else Error `Malformed
