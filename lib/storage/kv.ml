module Smap = Map.Make (String)

type t = { mutable map : string Smap.t }

type op =
  | Put of string * string
  | Delete of string
  | Add of string * int
  | Cas of string * string option * string

type outcome = Applied | Failed of string

let create () = { map = Smap.empty }
let copy t = { map = t.map }
let get t k = Smap.find_opt k t.map
let bindings t = Smap.bindings t.map

let check t = function
  | Put _ -> Ok ()
  | Delete k ->
      if Smap.mem k t.map then Ok () else Error "delete: no such key"
  | Add (k, _) -> (
      match Smap.find_opt k t.map with
      | None -> Ok () (* treated as 0 *)
      | Some v -> (
          match int_of_string_opt v with
          | Some _ -> Ok ()
          | None -> Error "add: value not numeric"))
  | Cas (k, expected, _) ->
      if Option.equal String.equal (Smap.find_opt k t.map) expected then Ok ()
      else Error "cas: expectation failed"

let can_apply t op = match check t op with Ok () -> true | Error _ -> false

let apply t op =
  match check t op with
  | Error msg -> Failed msg
  | Ok () ->
      (match op with
      | Put (k, v) -> t.map <- Smap.add k v t.map
      | Delete k -> t.map <- Smap.remove k t.map
      | Add (k, n) ->
          let current =
            match Smap.find_opt k t.map with
            | None -> 0
            | Some v -> int_of_string v
          in
          t.map <- Smap.add k (string_of_int (current + n)) t.map
      | Cas (k, _, v) -> t.map <- Smap.add k v t.map);
      Applied

let digest t =
  let ctx = Bp_crypto.Sha256.init () in
  Smap.iter
    (fun k v ->
      Bp_crypto.Sha256.update ctx (Printf.sprintf "%d:%s=%d:%s;" (String.length k) k (String.length v) v))
    t.map;
  Bp_crypto.Sha256.finalize ctx

let encode_op op =
  Bp_codec.Wire.encode (fun e ->
      match op with
      | Put (k, v) ->
          Bp_codec.Wire.u8 e 0;
          Bp_codec.Wire.string e k;
          Bp_codec.Wire.string e v
      | Delete k ->
          Bp_codec.Wire.u8 e 1;
          Bp_codec.Wire.string e k
      | Add (k, n) ->
          Bp_codec.Wire.u8 e 2;
          Bp_codec.Wire.string e k;
          Bp_codec.Wire.zigzag e n
      | Cas (k, expected, v) ->
          Bp_codec.Wire.u8 e 3;
          Bp_codec.Wire.string e k;
          Bp_codec.Wire.option e (Bp_codec.Wire.string e) expected;
          Bp_codec.Wire.string e v)

let decode_op s =
  Bp_codec.Wire.decode s (fun d ->
      match Bp_codec.Wire.read_u8 d with
      | 0 ->
          let k = Bp_codec.Wire.read_string d in
          Put (k, Bp_codec.Wire.read_string d)
      | 1 -> Delete (Bp_codec.Wire.read_string d)
      | 2 ->
          let k = Bp_codec.Wire.read_string d in
          Add (k, Bp_codec.Wire.read_zigzag d)
      | 3 ->
          let k = Bp_codec.Wire.read_string d in
          let expected = Bp_codec.Wire.read_option d Bp_codec.Wire.read_string in
          Cas (k, expected, Bp_codec.Wire.read_string d)
      | n -> raise (Bp_codec.Wire.Malformed (Printf.sprintf "kv op tag %d" n)))
