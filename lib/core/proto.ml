open Bp_codec

(* A cluster-sending probe: one source-unit node's single-signature
   attestation of its (src, dest) statement-chain head, together with the
   window of records the receiver needs to recompute that head from its
   own committed anchor. [base] is the sender's view of the destination's
   acknowledged frontier; [window] covers (base, head] contiguously as
   (comm_seq, log_pos, body) triples, where the body of an entry with
   comm_seq > [payload_from] is the record payload and the body of an
   entry at or below it is the record's statement digest. Statement
   digests suffice to recompute the chain head, so only the first probe
   of a coverage wave ships the window's bytes; the parallel probes that
   raise the window to fi+1 distinct signers stay digest-sized. *)
type probe = {
  p_src : int;
  p_dest : int;
  p_base : int;
  p_payload_from : int;
  p_window : (int * int * string) list;
  p_signer : string;
  p_signature : string;
  p_reply_to : Bp_sim.Addr.t; (* where cumulative acks go (daemon host) *)
}

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
  | Probe of probe  (* WAN: sender node -> one destination node *)
  | Disperse of probe  (* intra-unit: receiving node -> its peers *)
  | Probe_request of {
      pr_dest : int;
      pr_base : int;
      pr_head : int;
      pr_payload_from : int; (* ship payloads only above this seq *)
      pr_receiver : int; (* destination node index for this attempt *)
      pr_reply_to : Bp_sim.Addr.t;
    }  (* intra-unit: daemon -> scheduled sender node *)

(* Unit naming. Unit [u]'s replicas run PBFT under [unit_tag u], so each
   signs as [unit_tag u ^ "/" ^ addr] (Bp_pbft.Config.identity), and the
   attestation screens accept a signer only under [identity_prefix u].
   Built without Printf: the screens run once per received transmission. *)
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

let encode_sigs e sigs =
  Wire.list e
    (fun (identity, signature) ->
      Wire.string e identity;
      Wire.string e signature)
    sigs

let decode_sigs d =
  Wire.read_list d (fun d ->
      let identity = Wire.read_string d in
      let signature = Wire.read_string d in
      (identity, signature))

let encode_addr e (a : Bp_sim.Addr.t) =
  Wire.varint e a.Bp_sim.Addr.dc;
  Wire.varint e a.Bp_sim.Addr.idx

let decode_addr d =
  let dc = Wire.read_varint d in
  let idx = Wire.read_varint d in
  Bp_sim.Addr.make ~dc ~idx

let encode_probe e p =
  Wire.varint e p.p_src;
  Wire.varint e p.p_dest;
  Wire.zigzag e p.p_base;
  Wire.zigzag e p.p_payload_from;
  Wire.list e
    (fun (seq, pos, payload) ->
      Wire.varint e seq;
      Wire.varint e pos;
      Wire.string e payload)
    p.p_window;
  Wire.string e p.p_signer;
  Wire.string e p.p_signature;
  encode_addr e p.p_reply_to

let decode_probe d =
  let p_src = Wire.read_varint d in
  let p_dest = Wire.read_varint d in
  let p_base = Wire.read_zigzag d in
  let p_payload_from = Wire.read_zigzag d in
  let p_window =
    Wire.read_list d (fun d ->
        let seq = Wire.read_varint d in
        let pos = Wire.read_varint d in
        let payload = Wire.read_string d in
        (seq, pos, payload))
  in
  let p_signer = Wire.read_string d in
  let p_signature = Wire.read_string d in
  let p_reply_to = decode_addr d in
  {
    p_src;
    p_dest;
    p_base;
    p_payload_from;
    p_window;
    p_signer;
    p_signature;
    p_reply_to;
  }

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
          encode_sigs e sigs
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
          Wire.option e (Wire.string e) payload
      | Probe p ->
          Wire.u8 e 12;
          encode_probe e p
      | Disperse p ->
          Wire.u8 e 13;
          encode_probe e p
      | Probe_request
          { pr_dest; pr_base; pr_head; pr_payload_from; pr_receiver; pr_reply_to }
        ->
          Wire.u8 e 14;
          Wire.varint e pr_dest;
          Wire.zigzag e pr_base;
          Wire.zigzag e pr_head;
          Wire.zigzag e pr_payload_from;
          Wire.varint e pr_receiver;
          encode_addr e pr_reply_to)

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
          let sigs = decode_sigs d in
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
      | 12 -> Probe (decode_probe d)
      | 13 -> Disperse (decode_probe d)
      | 14 ->
          let pr_dest = Wire.read_varint d in
          let pr_base = Wire.read_zigzag d in
          let pr_head = Wire.read_zigzag d in
          let pr_payload_from = Wire.read_zigzag d in
          let pr_receiver = Wire.read_varint d in
          let pr_reply_to = decode_addr d in
          Probe_request
            { pr_dest; pr_base; pr_head; pr_payload_from; pr_receiver; pr_reply_to }
      | n -> raise (Wire.Malformed (Printf.sprintf "proto tag %d" n)))

let mirror_statement ~owner ~pos ~digest =
  Wire.encode (fun e ->
      Wire.string e "bp-mirror";
      Wire.varint e owner;
      Wire.varint e pos;
      Wire.string e digest)
