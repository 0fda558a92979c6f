open Bp_codec
module Transport = Bp_net.Transport

let scratch = Wire.encoder ~size_hint:512 ()

let encode_packet_into e = function
  | Transport.Unreliable { tag; payload } ->
      Wire.u8 e 0;
      Wire.string e tag;
      Wire.string e payload
  | Transport.Data { seq; tag; payload } ->
      Wire.u8 e 1;
      Wire.varint e seq;
      Wire.string e tag;
      Wire.string e payload
  | Transport.Ack { next_expected } ->
      Wire.u8 e 2;
      Wire.varint e next_expected

let raw packet = Frame.seal_with scratch (fun e -> encode_packet_into e packet)
