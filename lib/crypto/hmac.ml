let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  if String.length key = block_size then key
  else key ^ String.make (block_size - String.length key) '\x00'

(* One Bytes.create + in-place xor instead of a String.init closure per
   character. *)
let xor_pad key byte =
  let pad = Bytes.create block_size in
  for i = 0 to block_size - 1 do
    Bytes.unsafe_set pad i
      (Char.unsafe_chr (Char.code (String.unsafe_get key i) lxor byte))
  done;
  Bytes.unsafe_to_string pad

(* Each pad is exactly one block, so the hash of [pad ‖ ·] can start from
   a saved midstate: a MAC under a prepared key compresses two blocks
   fewer and never re-pads the key. Both passes and the tag comparison
   run in C ([Sha256.Kernel.hmac]), with no context on the OCaml heap. *)
type prepared = { inner : string; outer : string }

let pad_midstate key byte =
  let ctx = Sha256.init () in
  Sha256.update ctx (xor_pad key byte);
  Sha256.midstate ctx

let prepare key =
  let key = normalize_key key in
  { inner = pad_midstate key 0x36; outer = pad_midstate key 0x5c }

module Kernel = struct
  let mac kernel k msg = Sha256.Kernel.hmac kernel ~inner:k.inner ~outer:k.outer msg

  let verify_prepared kernel k ~msg ~tag =
    Sha256.Kernel.hmac_equal kernel ~inner:k.inner ~outer:k.outer msg ~tag
end

let mac k msg = Kernel.mac Sha256.Kernel.selected k msg
let sha256 ~key msg = mac (prepare key) msg
let verify_prepared k ~msg ~tag = Kernel.verify_prepared Sha256.Kernel.selected k ~msg ~tag
let verify ~key ~msg ~tag = verify_prepared (prepare key) ~msg ~tag
