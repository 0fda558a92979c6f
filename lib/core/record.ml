open Bp_codec

type kind = Log_commit | Communication | Received | Mirror

let kind_to_int = function
  | Log_commit -> 0
  | Communication -> 1
  | Received -> 2
  | Mirror -> 3

type communication = { dest : int; comm_seq : int; payload : string }

type transmission = {
  src : int;
  tdest : int;
  tcomm_seq : int;
  log_pos : int;
  tpayload : string;
  proofs : (string * string) list;
  geo_proofs : (int * (string * string) list) list;
}

type t =
  | Commit of string
  | Comm of communication
  | Recv of transmission
  | Mirrored of { owner : int; opos : int; ovalue : string }

let kind_of = function
  | Commit _ -> Log_commit
  | Comm _ -> Communication
  | Recv _ -> Received
  | Mirrored _ -> Mirror

let encode_sig_list e sigs =
  Wire.list e
    (fun (identity, signature) ->
      Wire.string e identity;
      Wire.string e signature)
    sigs

let decode_sig_list d =
  Wire.read_list d (fun d ->
      let identity = Wire.read_string d in
      let signature = Wire.read_string d in
      (identity, signature))

(* Exact encoded length of a log-commit, the bulk record, so
   {!Wire.encode} writes its payload into one buffer and hands that
   buffer back. *)
let encoded_size = function
  | Commit payload -> Some (1 + Wire.string_size payload)
  | Comm _ | Recv _ | Mirrored _ -> None

let encode r =
  Wire.encode ?size_hint:(encoded_size r) (fun e ->
      match r with
      | Commit payload ->
          Wire.u8 e 0;
          Wire.string e payload
      | Comm { dest; comm_seq; payload } ->
          Wire.u8 e 1;
          Wire.varint e dest;
          Wire.varint e comm_seq;
          Wire.string e payload
      | Recv { src; tdest; tcomm_seq; log_pos; tpayload; proofs; geo_proofs } ->
          Wire.u8 e 2;
          Wire.varint e src;
          Wire.varint e tdest;
          Wire.varint e tcomm_seq;
          Wire.varint e log_pos;
          Wire.string e tpayload;
          encode_sig_list e proofs;
          Wire.list e
            (fun (participant, sigs) ->
              Wire.varint e participant;
              encode_sig_list e sigs)
            geo_proofs
      | Mirrored { owner; opos; ovalue } ->
          Wire.u8 e 3;
          Wire.varint e owner;
          Wire.varint e opos;
          Wire.string e ovalue)

let decode s =
  Wire.decode s (fun d ->
      match Wire.read_u8 d with
      | 0 -> Commit (Wire.read_string d)
      | 1 ->
          let dest = Wire.read_varint d in
          let comm_seq = Wire.read_varint d in
          let payload = Wire.read_string d in
          Comm { dest; comm_seq; payload }
      | 2 ->
          let src = Wire.read_varint d in
          let tdest = Wire.read_varint d in
          let tcomm_seq = Wire.read_varint d in
          let log_pos = Wire.read_varint d in
          let tpayload = Wire.read_string d in
          let proofs = decode_sig_list d in
          let geo_proofs =
            Wire.read_list d (fun d ->
                let participant = Wire.read_varint d in
                let sigs = decode_sig_list d in
                (participant, sigs))
          in
          Recv { src; tdest; tcomm_seq; log_pos; tpayload; proofs; geo_proofs }
      | 3 ->
          let owner = Wire.read_varint d in
          let opos = Wire.read_varint d in
          let ovalue = Wire.read_string d in
          Mirrored { owner; opos; ovalue }
      | n -> raise (Wire.Malformed (Printf.sprintf "record tag %d" n)))

let transmission_statement ~digest t =
  Wire.encode (fun e ->
      Wire.varint e t.src;
      Wire.varint e t.tdest;
      Wire.varint e t.tcomm_seq;
      Wire.varint e t.log_pos;
      Wire.string e (digest t.tpayload))

let comm_image t =
  Comm { dest = t.tdest; comm_seq = t.tcomm_seq; payload = t.tpayload }
