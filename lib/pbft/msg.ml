open Bp_codec

type request = {
  client : Bp_sim.Addr.t;
  ts : int;
  kind : int;
  op : string;
  client_sig : string;
}

type prepared_proof = {
  pview : int;
  pseq : int;
  pdigest : string;
  pbatch : request list;
  prepare_sigs : (int * string) list;
}

type view_change = {
  new_view : int;
  stable_seq : int;
  stable_digest : string;
  prepared : prepared_proof list;
  vc_replica : int;
}

type body =
  | Request of request
  | Pre_prepare of { view : int; seq : int; digest : string; batch : request list }
  | Prepare of { view : int; seq : int; digest : string; replica : int }
  | Commit of { view : int; seq : int; digest : string; replica : int }
  | Reply of {
      view : int;
      ts : int;
      client : Bp_sim.Addr.t;
      replica : int;
      result : string;
    }
  | Checkpoint of { seq : int; state_digest : string; replica : int }
  | View_change of view_change
  | New_view of {
      view : int;
      view_change_envelopes : string list;
      batches : (int * string * request list) list;
      replica : int;
    }
  | Fetch of { from_seq : int; replica : int }
  | Fetch_reply of {
      batches : (int * string * request list) list;
      replica : int;
    }

(* ---------- encoding ---------- *)

let encode_addr e (a : Bp_sim.Addr.t) =
  Wire.varint e a.Bp_sim.Addr.dc;
  Wire.varint e a.Bp_sim.Addr.idx

let decode_addr d =
  let dc = Wire.read_varint d in
  let idx = Wire.read_varint d in
  Bp_sim.Addr.make ~dc ~idx

(* ---------- content-addressed signing payloads ----------

   Signatures over bulky messages cover a *content-addressed* payload: the structural encoding with every client operation replaced
   by its SHA-256 digest (and, for New_view, each carried view-change
   envelope replaced by its digest). This is PBFT's classic
   digest-amortization — the MAC/signature pass touches kilobytes instead
   of megabytes, while binding exactly the same semantic content, since
   SHA-256 pins the op bytes. The choice depends on the message's content
   alone, never on how much a caller's cache keeps, so every signer and
   verifier agrees byte-for-byte on what was signed; the per-node cache
   only memoizes the digests and verdicts.

   Domain separation: content-addressed body payloads start with byte
   0xCA and request payloads with 0xCB, neither of which is a valid body
   tag (0..9), so a signature over one payload shape can never be replayed
   as another. Small-bodied messages (Prepare, Commit, Reply, Checkpoint,
   Fetch) keep signing their exact encoding — there is nothing to
   amortize, and view-change proof checking can reconstruct their signed
   bytes without any op in hand. *)

(* Digest amortization only pays for itself when the content it would
   digest is big enough that one SHA-256 pass (memoized per node)
   undercuts MAC-ing the raw bytes on every verification. Below the
   cutoff the CA transform is pure overhead — an extra encoding pass and
   an extra hash per message — which matters for latency experiments
   whose operations are a handful of bytes. The weight is a pure function
   of the message's content, so every signer and verifier derives the
   same mode for the same message; the cutoff never changes what travels
   on the wire, only which bytes the signature covers. *)
let ca_min_bytes = 256

let request_signing_payload ~cache ~client ~ts ~kind ~op =
  if String.length op >= ca_min_bytes then
    Wire.encode (fun e ->
        Wire.u8 e 0xCB;
        encode_addr e client;
        Wire.varint e ts;
        Wire.u8 e kind;
        Wire.string e (Bp_crypto.Verify_cache.digest cache op))
  else
    Wire.encode (fun e ->
        encode_addr e client;
        Wire.varint e ts;
        Wire.u8 e kind;
        Wire.string e op)

let encode_request e r =
  encode_addr e r.client;
  Wire.varint e r.ts;
  Wire.u8 e r.kind;
  Wire.string e r.op;
  Wire.string e r.client_sig

let decode_request d =
  let client = decode_addr d in
  let ts = Wire.read_varint d in
  let kind = Wire.read_u8 d in
  let op = Wire.read_string d in
  let client_sig = Wire.read_string d in
  { client; ts; kind; op; client_sig }

let encode_proof e p =
  Wire.varint e p.pview;
  Wire.varint e p.pseq;
  Wire.string e p.pdigest;
  Wire.list e (encode_request e) p.pbatch;
  Wire.list e
    (fun (i, s) ->
      Wire.varint e i;
      Wire.string e s)
    p.prepare_sigs

let decode_proof d =
  let pview = Wire.read_varint d in
  let pseq = Wire.read_varint d in
  let pdigest = Wire.read_string d in
  let pbatch = Wire.read_list d decode_request in
  let prepare_sigs =
    Wire.read_list d (fun d ->
        let i = Wire.read_varint d in
        let s = Wire.read_string d in
        (i, s))
  in
  { pview; pseq; pdigest; pbatch; prepare_sigs }

let encode_body_into e body =
  (match body with
      | Request r ->
          Wire.u8 e 0;
          encode_request e r
      | Pre_prepare { view; seq; digest; batch } ->
          Wire.u8 e 1;
          Wire.varint e view;
          Wire.varint e seq;
          Wire.string e digest;
          Wire.list e (encode_request e) batch
      | Prepare { view; seq; digest; replica } ->
          Wire.u8 e 2;
          Wire.varint e view;
          Wire.varint e seq;
          Wire.string e digest;
          Wire.varint e replica
      | Commit { view; seq; digest; replica } ->
          Wire.u8 e 3;
          Wire.varint e view;
          Wire.varint e seq;
          Wire.string e digest;
          Wire.varint e replica
      | Reply { view; ts; client; replica; result } ->
          Wire.u8 e 4;
          Wire.varint e view;
          Wire.varint e ts;
          encode_addr e client;
          Wire.varint e replica;
          Wire.string e result
      | Checkpoint { seq; state_digest; replica } ->
          Wire.u8 e 5;
          Wire.varint e seq;
          Wire.string e state_digest;
          Wire.varint e replica
      | View_change { new_view; stable_seq; stable_digest; prepared; vc_replica } ->
          Wire.u8 e 6;
          Wire.varint e new_view;
          Wire.varint e stable_seq;
          Wire.string e stable_digest;
          Wire.list e (encode_proof e) prepared;
          Wire.varint e vc_replica
      | New_view { view; view_change_envelopes; batches; replica } ->
          Wire.u8 e 7;
          Wire.varint e view;
          Wire.list e (Wire.string e) view_change_envelopes;
          Wire.list e
            (fun (seq, digest, batch) ->
              Wire.varint e seq;
              Wire.string e digest;
              Wire.list e (encode_request e) batch)
            batches;
          Wire.varint e replica
      | Fetch { from_seq; replica } ->
          Wire.u8 e 8;
          Wire.varint e from_seq;
          Wire.varint e replica
      | Fetch_reply { batches; replica } ->
          Wire.u8 e 9;
          Wire.list e
            (fun (seq, digest, batch) ->
              Wire.varint e seq;
              Wire.string e digest;
              Wire.list e (encode_request e) batch)
            batches;
          Wire.varint e replica)

let encode_body body = Wire.encode (fun e -> encode_body_into e body)

let decode_body s =
  Wire.decode s (fun d ->
      match Wire.read_u8 d with
      | 0 -> Request (decode_request d)
      | 1 ->
          let view = Wire.read_varint d in
          let seq = Wire.read_varint d in
          let digest = Wire.read_string d in
          let batch = Wire.read_list d decode_request in
          Pre_prepare { view; seq; digest; batch }
      | 2 ->
          let view = Wire.read_varint d in
          let seq = Wire.read_varint d in
          let digest = Wire.read_string d in
          let replica = Wire.read_varint d in
          Prepare { view; seq; digest; replica }
      | 3 ->
          let view = Wire.read_varint d in
          let seq = Wire.read_varint d in
          let digest = Wire.read_string d in
          let replica = Wire.read_varint d in
          Commit { view; seq; digest; replica }
      | 4 ->
          let view = Wire.read_varint d in
          let ts = Wire.read_varint d in
          let client = decode_addr d in
          let replica = Wire.read_varint d in
          let result = Wire.read_string d in
          Reply { view; ts; client; replica; result }
      | 5 ->
          let seq = Wire.read_varint d in
          let state_digest = Wire.read_string d in
          let replica = Wire.read_varint d in
          Checkpoint { seq; state_digest; replica }
      | 6 ->
          let new_view = Wire.read_varint d in
          let stable_seq = Wire.read_varint d in
          let stable_digest = Wire.read_string d in
          let prepared = Wire.read_list d decode_proof in
          let replica = Wire.read_varint d in
          View_change { new_view; stable_seq; stable_digest; prepared; vc_replica = replica }
      | 7 ->
          let view = Wire.read_varint d in
          let view_change_envelopes = Wire.read_list d Wire.read_string in
          let batches =
            Wire.read_list d (fun d ->
                let seq = Wire.read_varint d in
                let digest = Wire.read_string d in
                let batch = Wire.read_list d decode_request in
                (seq, digest, batch))
          in
          let replica = Wire.read_varint d in
          New_view { view; view_change_envelopes; batches; replica }
      | 8 ->
          let from_seq = Wire.read_varint d in
          let replica = Wire.read_varint d in
          Fetch { from_seq; replica }
      | 9 ->
          let batches =
            Wire.read_list d (fun d ->
                let seq = Wire.read_varint d in
                let digest = Wire.read_string d in
                let batch = Wire.read_list d decode_request in
                (seq, digest, batch))
          in
          let replica = Wire.read_varint d in
          Fetch_reply { batches; replica }
      | n -> raise (Wire.Malformed (Printf.sprintf "pbft msg tag %d" n)))

(* ---------- signatures ---------- *)

(* Content-addressed image of a request / proof / body: ops (and carried
   envelopes) replaced by their digests. Only the bulky constructors are
   transformed; the small ones sign their exact encoding. *)

let ca_request cache r = { r with op = Bp_crypto.Verify_cache.digest cache r.op }

let ca_proof cache p = { p with pbatch = List.map (ca_request cache) p.pbatch }

let ca_batches cache batches =
  List.map
    (fun (seq, digest, batch) -> (seq, digest, List.map (ca_request cache) batch))
    batches

let ca_body cache = function
  | Request r -> Request (ca_request cache r)
  | Pre_prepare { view; seq; digest; batch } ->
      Pre_prepare { view; seq; digest; batch = List.map (ca_request cache) batch }
  | View_change { new_view; stable_seq; stable_digest; prepared; vc_replica } ->
      View_change
        {
          new_view;
          stable_seq;
          stable_digest;
          prepared = List.map (ca_proof cache) prepared;
          vc_replica;
        }
  | New_view { view; view_change_envelopes; batches; replica } ->
      New_view
        {
          view;
          view_change_envelopes =
            List.map (Bp_crypto.Verify_cache.digest cache) view_change_envelopes;
          batches = ca_batches cache batches;
          replica;
        }
  | Fetch_reply { batches; replica } ->
      Fetch_reply { batches = ca_batches cache batches; replica }
  | (Prepare _ | Commit _ | Reply _ | Checkpoint _ | Fetch _) as small -> small

(* Bulk weight of a body: the bytes the CA transform would digest away.
   Bodies at or above {!ca_min_bytes} sign the content-addressed payload;
   lighter ones sign their exact encoding. *)
let batch_weight batch =
  List.fold_left (fun acc r -> acc + String.length r.op) 0 batch

let batches_weight batches =
  List.fold_left (fun acc (_, _, batch) -> acc + batch_weight batch) 0 batches

let bulk_weight = function
  | Request r -> String.length r.op
  | Pre_prepare { batch; _ } -> batch_weight batch
  | View_change { prepared; _ } ->
      List.fold_left (fun acc p -> acc + batch_weight p.pbatch) 0 prepared
  | New_view { view_change_envelopes; batches; _ } ->
      List.fold_left
        (fun acc env -> acc + String.length env)
        (batches_weight batches) view_change_envelopes
  | Fetch_reply { batches; _ } -> batches_weight batches
  | Prepare _ | Commit _ | Reply _ | Checkpoint _ | Fetch _ -> 0

let content_addressed body = bulk_weight body >= ca_min_bytes

(* The bytes a body's envelope signature covers. [encoded] is the body's
   wire encoding (always computed — it is what travels). The
   content-addressed payload is built on an uncounted raw encoder: it is
   derived bookkeeping, not a message serialization, and must not perturb
   the encode-once accounting that {!Wire.encode_calls} tests pin. *)
let signing_payload ~cache ~encoded body =
  if content_addressed body then begin
    let e = Wire.encoder ~size_hint:512 () in
    Wire.u8 e 0xCA;
    encode_body_into e (ca_body cache body);
    Wire.to_string e
  end
  else encoded

let make_request ~cache cfg ~client ~ts ~kind ~op =
  let payload = request_signing_payload ~cache ~client ~ts ~kind ~op in
  let client_sig =
    Bp_crypto.Verify_cache.sign cache ~signer:(Config.identity cfg client) payload
  in
  { client; ts; kind; op; client_sig }

let request_valid ~cache cfg r =
  let payload =
    request_signing_payload ~cache ~client:r.client ~ts:r.ts ~kind:r.kind
      ~op:r.op
  in
  Bp_crypto.Verify_cache.verify cache ~signer:(Config.identity cfg r.client)
    ~msg:payload ~signature:r.client_sig

(* Batched spelling of [List.for_all (request_valid ~cache cfg)]: the
   per-request payloads and identities are derived first, then every
   signature checks as one [Verify_batch] batch. *)
let requests_valid ~cache cfg batch =
  match batch with
  | [] -> true
  | [ r ] -> request_valid ~cache cfg r
  | _ ->
      let jobs =
        List.map
          (fun r ->
            let payload =
              request_signing_payload ~cache ~client:r.client ~ts:r.ts
                ~kind:r.kind ~op:r.op
            in
            {
              Bp_crypto.Verify_batch.signer = Config.identity cfg r.client;
              msg = payload;
              signature = r.client_sig;
            })
          batch
      in
      let ctx = Bp_crypto.Verify_batch.global () in
      let verdicts = Bp_crypto.Verify_batch.verify ~cache ctx jobs in
      List.for_all Fun.id verdicts

let batch_digest ~cache batch =
  let ctx = Bp_crypto.Sha256.init () in
  let image =
    if batch_weight batch >= ca_min_bytes then fun r -> ca_request cache r
    else fun r -> r
  in
  List.iter
    (fun r ->
      Bp_crypto.Sha256.update ctx
        (Wire.encode (fun e -> encode_request e (image r))))
    batch;
  Bp_crypto.Sha256.finalize ctx

let sender_of cfg = function
  | Request r -> Some r.client
  | Pre_prepare { view; _ } ->
      Some cfg.Config.nodes.(Config.primary_of_view cfg view)
  | Prepare { replica; _ }
  | Commit { replica; _ }
  | Reply { replica; _ }
  | Checkpoint { replica; _ }
  | View_change { vc_replica = replica; _ }
  | New_view { replica; _ }
  | Fetch { replica; _ }
  | Fetch_reply { replica; _ } ->
      if replica >= 0 && replica < Config.n cfg then
        Some cfg.Config.nodes.(replica)
      else None

let seal ~cache cfg ~sender body =
  let encoded = encode_body body in
  let payload = signing_payload ~cache ~encoded body in
  let signature =
    Bp_crypto.Verify_cache.sign cache ~signer:(Config.identity cfg sender)
      payload
  in
  Wire.encode (fun e ->
      Wire.string e encoded;
      Wire.string e signature)

let seal_forged cfg ~sender body =
  ignore (Config.identity cfg sender);
  let encoded = encode_body body in
  Wire.encode (fun e ->
      Wire.string e encoded;
      Wire.string e (String.make 32 '\x00'))

(* Decode and check the signature against the identity the body itself
   claims ([sender_of]), so a node cannot speak for another. *)
let verify_envelope ~cache cfg s =
  match
    Wire.decode s (fun d ->
        let encoded = Wire.read_string d in
        let signature = Wire.read_string d in
        (encoded, signature))
  with
  | Error e -> Error e
  | Ok (encoded, signature) -> (
      match decode_body encoded with
      | Error e -> Error e
      | Ok body -> (
          match sender_of cfg body with
          | None -> Error "no sender identity"
          | Some sender ->
              let payload = signing_payload ~cache ~encoded body in
              if
                Bp_crypto.Verify_cache.verify cache
                  ~signer:(Config.identity cfg sender) ~msg:payload ~signature
              then Ok body
              else Error "bad signature"))
