open Bp_codec

type t =
  | Sign_request of { transmission : Record.transmission }
  | Sign_response of {
      dest : int;
      comm_seq : int;
      identity : string;
      signature : string;
    }
  | Transmit of { transmission : Record.transmission }
  | Ack of { from_participant : int; comm_seq : int }
  | Reserve_query of { src : int }
  | Reserve_reply of { src : int; last : int }
  | Mirror_request of { owner : int; pos : int; value : string }
  | Mirror_proof of {
      owner : int;
      pos : int;
      participant : int;
      sigs : (string * string) list;
    }
  | Mirror_sign_request of { owner : int; pos : int; digest : string }
  | Mirror_sign_response of {
      owner : int;
      pos : int;
      identity : string;
      signature : string;
    }
  | Read_query of { pos : int }
  | Read_reply of { pos : int; payload : string option }

(* Unit naming. Unit [u]'s replicas run PBFT under [unit_tag u], so each
   signs as [unit_tag u ^ "/" ^ addr] (Bp_pbft.Config.identity), and
   [Unit_node.attests] counts a signer for unit [u] only under
   [identity_prefix u]. Built without Printf: the screen runs once per
   received transmission. *)
let unit_tag u = "u" ^ Int.to_string u
let identity_prefix u = unit_tag u ^ "/"
let aux_tag u = unit_tag u ^ ".aux"

let encode_transmission e (tr : Record.transmission) =
  Wire.string e (Record.encode (Record.Recv tr))

let decode_transmission d =
  match Record.decode (Wire.read_string d) with
  | Ok (Record.Recv tr) -> tr
  | Ok _ -> raise (Wire.Malformed "expected Recv record")
  | Error msg -> raise (Wire.Malformed msg)

let encode m =
  Wire.encode (fun e ->
      match m with
      | Sign_request { transmission } ->
          Wire.u8 e 0;
          encode_transmission e transmission
      | Sign_response { dest; comm_seq; identity; signature } ->
          Wire.u8 e 1;
          Wire.varint e dest;
          Wire.varint e comm_seq;
          Wire.string e identity;
          Wire.string e signature
      | Transmit { transmission } ->
          Wire.u8 e 2;
          encode_transmission e transmission
      | Ack { from_participant; comm_seq } ->
          Wire.u8 e 3;
          Wire.varint e from_participant;
          Wire.zigzag e comm_seq
      | Reserve_query { src } ->
          Wire.u8 e 4;
          Wire.varint e src
      | Reserve_reply { src; last } ->
          Wire.u8 e 5;
          Wire.varint e src;
          Wire.zigzag e last
      | Mirror_request { owner; pos; value } ->
          Wire.u8 e 6;
          Wire.varint e owner;
          Wire.varint e pos;
          Wire.string e value
      | Mirror_proof { owner; pos; participant; sigs } ->
          Wire.u8 e 7;
          Wire.varint e owner;
          Wire.varint e pos;
          Wire.varint e participant;
          Record.encode_sig_list e sigs
      | Mirror_sign_request { owner; pos; digest } ->
          Wire.u8 e 8;
          Wire.varint e owner;
          Wire.varint e pos;
          Wire.string e digest
      | Mirror_sign_response { owner; pos; identity; signature } ->
          Wire.u8 e 9;
          Wire.varint e owner;
          Wire.varint e pos;
          Wire.string e identity;
          Wire.string e signature
      | Read_query { pos } ->
          Wire.u8 e 10;
          Wire.varint e pos
      | Read_reply { pos; payload } ->
          Wire.u8 e 11;
          Wire.varint e pos;
          Wire.option e (Wire.string e) payload)

let decode s =
  Wire.decode s (fun d ->
      match Wire.read_u8 d with
      | 0 -> Sign_request { transmission = decode_transmission d }
      | 1 ->
          let dest = Wire.read_varint d in
          let comm_seq = Wire.read_varint d in
          let identity = Wire.read_string d in
          let signature = Wire.read_string d in
          Sign_response { dest; comm_seq; identity; signature }
      | 2 -> Transmit { transmission = decode_transmission d }
      | 3 ->
          let from_participant = Wire.read_varint d in
          let comm_seq = Wire.read_zigzag d in
          Ack { from_participant; comm_seq }
      | 4 -> Reserve_query { src = Wire.read_varint d }
      | 5 ->
          let src = Wire.read_varint d in
          let last = Wire.read_zigzag d in
          Reserve_reply { src; last }
      | 6 ->
          let owner = Wire.read_varint d in
          let pos = Wire.read_varint d in
          let value = Wire.read_string d in
          Mirror_request { owner; pos; value }
      | 7 ->
          let owner = Wire.read_varint d in
          let pos = Wire.read_varint d in
          let participant = Wire.read_varint d in
          let sigs = Record.decode_sig_list d in
          Mirror_proof { owner; pos; participant; sigs }
      | 8 ->
          let owner = Wire.read_varint d in
          let pos = Wire.read_varint d in
          let digest = Wire.read_string d in
          Mirror_sign_request { owner; pos; digest }
      | 9 ->
          let owner = Wire.read_varint d in
          let pos = Wire.read_varint d in
          let identity = Wire.read_string d in
          let signature = Wire.read_string d in
          Mirror_sign_response { owner; pos; identity; signature }
      | 10 -> Read_query { pos = Wire.read_varint d }
      | 11 ->
          let pos = Wire.read_varint d in
          let payload = Wire.read_option d Wire.read_string in
          Read_reply { pos; payload }
      | n -> raise (Wire.Malformed (Printf.sprintf "proto tag %d" n)))

let mirror_key ~owner ~pos =
  if owner >= 0 && owner < 1 lsl 16 && pos >= 0 && pos < 1 lsl 46 then
    (owner lsl 46) lor pos
  else -1

(* The low bits are the position, which varies fastest, so a key is its
   own hash. *)
module Mirror_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k
end)

let mirror_statement ~owner ~pos ~digest =
  Wire.encode (fun e ->
      Wire.string e "bp-mirror";
      Wire.varint e owner;
      Wire.varint e pos;
      Wire.string e digest)
