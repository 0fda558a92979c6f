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

(* ---------- cross-shard transaction records ----------

   The shard layer drives its BFT two-phase commit through ordinary
   log-commit records: a reserved "__xs:" payload prefix marks the
   prepare / apply / decide entries each participant shard appends to its
   own Local Log. The prefix mirrors the "_read_marker:" and "__rejected"
   precedents — middleware-internal payloads the user protocol never
   sees raw; Unit_node gives them their staging semantics. *)

type xs =
  | Xs_prepare of { txid : string; ops : (string * string) list }
  | Xs_apply of { txid : string; ops : (string * string) list }
  | Xs_decide of { txid : string; commit : bool }

let xs_prefix = "__xs:"

let encode_ops e ops =
  Wire.list e
    (fun (key, op) ->
      Wire.string e key;
      Wire.string e op)
    ops

let decode_ops d =
  Wire.read_list d (fun d ->
      let key = Wire.read_string d in
      let op = Wire.read_string d in
      (key, op))

let xs_payload xs =
  xs_prefix
  ^ Wire.encode (fun e ->
        match xs with
        | Xs_prepare { txid; ops } ->
            Wire.u8 e 0;
            Wire.string e txid;
            encode_ops e ops
        | Xs_apply { txid; ops } ->
            Wire.u8 e 1;
            Wire.string e txid;
            encode_ops e ops
        | Xs_decide { txid; commit } ->
            Wire.u8 e 2;
            Wire.string e txid;
            Wire.bool e commit)

let is_xs_payload payload = String.starts_with ~prefix:xs_prefix payload

let xs_of_payload payload =
  if not (is_xs_payload payload) then `Not_xs
  else
    let off = String.length xs_prefix in
    match
      Wire.decode_sub payload ~off ~len:(String.length payload - off) (fun d ->
          let xs =
            match Wire.read_u8 d with
            | 0 ->
                let txid = Wire.read_string d in
                let ops = decode_ops d in
                Xs_prepare { txid; ops }
            | 1 ->
                let txid = Wire.read_string d in
                let ops = decode_ops d in
                Xs_apply { txid; ops }
            | 2 ->
                let txid = Wire.read_string d in
                let commit = Wire.read_bool d in
                Xs_decide { txid; commit }
            | n -> raise (Wire.Malformed (Printf.sprintf "xs tag %d" n))
          in
          if not (Wire.at_end d) then raise (Wire.Malformed "xs trailing bytes");
          xs)
    with
    | Ok xs -> `Xs xs
    | Error _ -> `Malformed

let comm_image t =
  Comm { dest = t.tdest; comm_seq = t.tcomm_seq; payload = t.tpayload }
