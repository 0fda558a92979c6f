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

(* The original content-addressed signing payload: build the image as a
   body first ([ca_body], each op and carried envelope replaced by its
   digest), then encode it behind the 0xCA marker. *)
let ca_min_bytes = 256

let ca_request cache r =
  { r with Msg.op = Bp_crypto.Verify_cache.digest cache r.Msg.op; decoded = Msg.Not_decoded }

let ca_proof cache p = { p with Msg.pbatch = List.map (ca_request cache) p.Msg.pbatch }

let ca_batches cache batches =
  List.map
    (fun (seq, digest, batch) -> (seq, digest, List.map (ca_request cache) batch))
    batches

let ca_body cache = function
  | Msg.Request r -> Msg.Request (ca_request cache r)
  | Msg.Pre_prepare { view; seq; digest; batch } ->
      Msg.Pre_prepare { view; seq; digest; batch = List.map (ca_request cache) batch }
  | Msg.View_change { new_view; stable_seq; prepared; vc_replica } ->
      Msg.View_change
        { new_view; stable_seq; prepared = List.map (ca_proof cache) prepared; vc_replica }
  | Msg.New_view { view; view_change_envelopes; replica } ->
      Msg.New_view
        {
          view;
          view_change_envelopes =
            List.map (Bp_crypto.Verify_cache.digest cache) view_change_envelopes;
          replica;
        }
  | Msg.Fetch_reply { batches; replica } ->
      Msg.Fetch_reply { batches = ca_batches cache batches; replica }
  | ( Msg.Prepare _ | Msg.Commit _ | Msg.Reply _ | Msg.Checkpoint _
    | Msg.Fetch _ ) as small ->
      small

let batch_weight batch =
  List.fold_left (fun acc r -> acc + String.length r.Msg.op) 0 batch

let batches_weight batches =
  List.fold_left (fun acc (_, _, batch) -> acc + batch_weight batch) 0 batches

let bulk_weight = function
  | Msg.Request r -> String.length r.Msg.op
  | Msg.Pre_prepare { batch; _ } -> batch_weight batch
  | Msg.View_change { prepared; _ } ->
      List.fold_left (fun acc p -> acc + batch_weight p.Msg.pbatch) 0 prepared
  | Msg.New_view { view_change_envelopes; _ } ->
      List.fold_left (fun acc env -> acc + String.length env) 0 view_change_envelopes
  | Msg.Fetch_reply { batches; _ } -> batches_weight batches
  | Msg.Prepare _ | Msg.Commit _ | Msg.Reply _ | Msg.Checkpoint _ | Msg.Fetch _ -> 0

let signing_payload ~cache body =
  if bulk_weight body >= ca_min_bytes then
    "\xCA" ^ Msg.encode_body (ca_body cache body)
  else Msg.encode_body body
