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
   fewer and never re-pads the key. *)
type prepared = { inner : string; outer : string }

let pad_midstate key byte =
  let ctx = Sha256.init () in
  Sha256.update ctx (xor_pad key byte);
  Sha256.midstate ctx

let prepare key =
  let key = normalize_key key in
  { inner = pad_midstate key 0x36; outer = pad_midstate key 0x5c }

let mac k msg =
  let ctx = Sha256.resume k.inner in
  Sha256.update ctx msg;
  let inner = Sha256.finalize ctx in
  let ctx = Sha256.resume k.outer in
  Sha256.update ctx inner;
  Sha256.finalize ctx

let sha256 ~key msg = mac (prepare key) msg

let constant_time_equal a b =
  String.length a = String.length b
  && begin
       let acc = ref 0 in
       String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
       !acc = 0
     end

let verify_prepared k ~msg ~tag = constant_time_equal (mac k msg) tag

let verify ~key ~msg ~tag = verify_prepared (prepare key) ~msg ~tag
