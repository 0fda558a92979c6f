open Bp_codec
module Msg = Bp_pbft.Msg

let verify_envelope ~cache cfg s =
  match
    Wire.decode s (fun d ->
        let encoded = Wire.read_string d in
        let signature = Wire.read_string d in
        (encoded, signature))
  with
  | Error e -> Error e
  | Ok (encoded, signature) -> (
      match Msg.decode_body encoded with
      | Error e -> Error e
      | Ok body -> (
          match Msg.sender_of cfg body with
          | None -> Error "no sender identity"
          | Some sender ->
              let payload =
                Msg.signing_payload ~cache ~encoded:(fun () -> encoded) body
              in
              if
                Bp_crypto.Verify_cache.verify cache
                  ~signer:(Bp_pbft.Config.identity cfg sender)
                  ~msg:payload ~signature
              then Ok body
              else Error "bad signature"))
