open Bp_codec

type decoded = ..
type decoded += Not_decoded

type request = {
  client : Bp_sim.Addr.t;
  ts : int;
  kind : int;
  op : string;
  client_sig : string;
  mutable decoded : decoded;
  mutable executions : int;
  sha : Bp_crypto.Verify_cache.sha_memo;
}

type prepared_proof = {
  pview : int;
  pseq : int;
  pdigest : string;
  pbatch : request list;
  prepares : string list;
}

type view_change = {
  new_view : int;
  stable_seq : int;
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
  | New_view of { view : int; view_change_envelopes : string list; replica : int }
  | Fetch of { from_seq : int; replica : int }
  | Fetch_reply of {
      batches : (int * string * request list) list;
      replica : int;
    }

(* ---------- equality ---------- *)

(* Field by field, over what travels on the wire: [decoded],
   [executions] and [sha] are a node's memos, not part of the message. *)
let request_equal a b =
  Bp_sim.Addr.equal a.client b.client
  && a.ts = b.ts && a.kind = b.kind && String.equal a.op b.op
  && String.equal a.client_sig b.client_sig

let proof_equal p q =
  p.pview = q.pview && p.pseq = q.pseq
  && String.equal p.pdigest q.pdigest
  && List.equal request_equal p.pbatch q.pbatch
  && List.equal String.equal p.prepares q.prepares

let body_equal a b =
  match (a, b) with
  | Request r, Request r' -> request_equal r r'
  | Pre_prepare p, Pre_prepare q ->
      p.view = q.view && p.seq = q.seq
      && String.equal p.digest q.digest
      && List.equal request_equal p.batch q.batch
  | Prepare p, Prepare q ->
      p.view = q.view && p.seq = q.seq
      && String.equal p.digest q.digest
      && p.replica = q.replica
  | Commit p, Commit q ->
      p.view = q.view && p.seq = q.seq
      && String.equal p.digest q.digest
      && p.replica = q.replica
  | Reply p, Reply q ->
      p.view = q.view && p.ts = q.ts
      && Bp_sim.Addr.equal p.client q.client
      && p.replica = q.replica
      && String.equal p.result q.result
  | Checkpoint p, Checkpoint q ->
      p.seq = q.seq
      && String.equal p.state_digest q.state_digest
      && p.replica = q.replica
  | View_change v, View_change w ->
      v.new_view = w.new_view && v.stable_seq = w.stable_seq
      && List.equal proof_equal v.prepared w.prepared
      && v.vc_replica = w.vc_replica
  | New_view p, New_view q ->
      p.view = q.view
      && List.equal String.equal p.view_change_envelopes q.view_change_envelopes
      && p.replica = q.replica
  | Fetch p, Fetch q -> p.from_seq = q.from_seq && p.replica = q.replica
  | Fetch_reply p, Fetch_reply q ->
      List.equal
        (fun (s, d, b) (s', d', b') ->
          s = s' && String.equal d d' && List.equal request_equal b b')
        p.batches q.batches
      && p.replica = q.replica
  | ( ( Request _ | Pre_prepare _ | Prepare _ | Commit _ | Reply _
      | Checkpoint _ | View_change _ | New_view _ | Fetch _ | Fetch_reply _ ),
      _ ) ->
      false

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
   amortize. A prepared proof carries its Prepare envelopes whole, in the
   wire encoding and the content-addressed image alike. *)

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

let addr_size (a : Bp_sim.Addr.t) =
  Wire.varint_size a.Bp_sim.Addr.dc + Wire.varint_size a.Bp_sim.Addr.idx

let request_signing_payload ~cache ~sha ~client ~ts ~kind ~op =
  let header = addr_size client + Wire.varint_size ts + 1 in
  if String.length op >= ca_min_bytes then
    (* 1 marker byte, then a 32-byte digest behind its 1-byte length *)
    Wire.encode ~size_hint:(header + 34) (fun e ->
        Wire.u8 e 0xCB;
        encode_addr e client;
        Wire.varint e ts;
        Wire.u8 e kind;
        Wire.string e (Bp_crypto.Verify_cache.digest_with cache sha op))
  else
    Wire.encode ~size_hint:(header + Wire.string_size op) (fun e ->
        encode_addr e client;
        Wire.varint e ts;
        Wire.u8 e kind;
        Wire.string e op)

(* A request's encoding with [op] in place of its operation: the
   operation itself on the wire, its digest in a content-addressed
   image. *)
let encode_request_with e r op =
  encode_addr e r.client;
  Wire.varint e r.ts;
  Wire.u8 e r.kind;
  Wire.string e op;
  Wire.string e r.client_sig

let encode_request e r = encode_request_with e r r.op

let decode_request d =
  let client = decode_addr d in
  let ts = Wire.read_varint d in
  let kind = Wire.read_u8 d in
  let op = Wire.read_string d in
  let client_sig = Wire.read_string d in
  {
    client;
    ts;
    kind;
    op;
    client_sig;
    decoded = Not_decoded;
    executions = 0;
    sha = Bp_crypto.Verify_cache.sha_memo ();
  }

let encode_proof e ~request p =
  Wire.varint e p.pview;
  Wire.varint e p.pseq;
  Wire.string e p.pdigest;
  Wire.list e (request e) p.pbatch;
  Wire.list e (Wire.string e) p.prepares

let decode_proof d =
  let pview = Wire.read_varint d in
  let pseq = Wire.read_varint d in
  let pdigest = Wire.read_string d in
  let pbatch = Wire.read_list d decode_request in
  let prepares = Wire.read_list d Wire.read_string in
  { pview; pseq; pdigest; pbatch; prepares }

(* The body's encoding, with [request] writing each client request and
   [envelope] each carried view-change envelope: [encode_request] and
   [Wire.string] give the wire encoding, digest-substituting writers the
   content-addressed image. *)
let encode_body_with e ~request ~envelope body =
  (match body with
      | Request r ->
          Wire.u8 e 0;
          request e r
      | Pre_prepare { view; seq; digest; batch } ->
          Wire.u8 e 1;
          Wire.varint e view;
          Wire.varint e seq;
          Wire.string e digest;
          Wire.list e (request e) batch
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
      | View_change { new_view; stable_seq; prepared; vc_replica } ->
          Wire.u8 e 6;
          Wire.varint e new_view;
          Wire.varint e stable_seq;
          Wire.list e (encode_proof e ~request) prepared;
          Wire.varint e vc_replica
      | New_view { view; view_change_envelopes; replica } ->
          Wire.u8 e 7;
          Wire.varint e view;
          Wire.list e (envelope e) view_change_envelopes;
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
              Wire.list e (request e) batch)
            batches;
          Wire.varint e replica)

(* Exact encoded sizes, so an encode writes into one buffer that becomes
   the message: no oversized scratch buffer, no trimming copy. *)
let request_size_with r ~op_size =
  addr_size r.client + Wire.varint_size r.ts + 1 + op_size
  + Wire.string_size r.client_sig

let request_size r = request_size_with r ~op_size:(Wire.string_size r.op)

(* A SHA-256 digest behind its one-byte length, as a content-addressed
   image writes it in place of an op. *)
let digest_size = 33
let ca_request_size r = request_size_with r ~op_size:digest_size

let body_size_with request_size = function
  | Request r -> Some (1 + request_size r)
  | Pre_prepare { view; seq; digest; batch } ->
      Some
        (List.fold_left
           (fun acc r -> acc + request_size r)
           (1 + Wire.varint_size view + Wire.varint_size seq
           + Wire.string_size digest
           + Wire.varint_size (List.length batch))
           batch)
  | Prepare { view; seq; digest; replica } | Commit { view; seq; digest; replica }
    ->
      Some
        (1 + Wire.varint_size view + Wire.varint_size seq
        + Wire.string_size digest + Wire.varint_size replica)
  | Reply { view; ts; client; replica; result } ->
      Some
        (1 + Wire.varint_size view + Wire.varint_size ts + addr_size client
        + Wire.varint_size replica + Wire.string_size result)
  | Checkpoint { seq; state_digest; replica } ->
      Some
        (1 + Wire.varint_size seq + Wire.string_size state_digest
        + Wire.varint_size replica)
  | Fetch { from_seq; replica } ->
      Some (1 + Wire.varint_size from_seq + Wire.varint_size replica)
  | View_change _ | New_view _ | Fetch_reply _ -> None

let body_size = body_size_with request_size

let encode_body body =
  Wire.encode ?size_hint:(body_size body) (fun e ->
      encode_body_with e ~request:encode_request ~envelope:Wire.string body)

let read_body d =
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
      let prepared = Wire.read_list d decode_proof in
      let replica = Wire.read_varint d in
      View_change { new_view; stable_seq; prepared; vc_replica = replica }
  | 7 ->
      let view = Wire.read_varint d in
      let view_change_envelopes = Wire.read_list d Wire.read_string in
      let replica = Wire.read_varint d in
      New_view { view; view_change_envelopes; replica }
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
  | n -> raise (Wire.Malformed (Printf.sprintf "pbft msg tag %d" n))

let decode_body s = Wire.decode s read_body

(* ---------- signatures ---------- *)

(* Bulk weight of a body: the bytes the CA transform would digest away.
   Bodies at or above {!ca_min_bytes} sign the content-addressed payload;
   lighter ones sign their exact encoding. *)
let batch_weight batch =
  List.fold_left (fun acc r -> acc + String.length r.op) 0 batch

let bulk_weight = function
  | Request r -> String.length r.op
  | Pre_prepare { batch; _ } -> batch_weight batch
  | View_change { prepared; _ } ->
      List.fold_left (fun acc p -> acc + batch_weight p.pbatch) 0 prepared
  | New_view { view_change_envelopes; _ } ->
      List.fold_left (fun acc env -> acc + String.length env) 0 view_change_envelopes
  | Fetch_reply { batches; _ } ->
      List.fold_left (fun acc (_, _, batch) -> acc + batch_weight batch) 0 batches
  | Prepare _ | Commit _ | Reply _ | Checkpoint _ | Fetch _ -> 0

let content_addressed body = bulk_weight body >= ca_min_bytes

(* Content-addressed image of a request: its encoding with the op
   replaced by its digest, through the request's own memo. *)
let ca_request cache e r =
  encode_request_with e r (Bp_crypto.Verify_cache.digest_with cache r.sha r.op)

let digested cache e env = Wire.string e (Bp_crypto.Verify_cache.digest cache env)

(* The bytes a body's envelope signature covers. [encoded] produces the
   body's wire encoding, asked for only when that is the signed payload.
   The content-addressed image is written straight into an uncounted raw
   encoder, digesting each op (and carried envelope) as the encoding
   reaches it: it is derived bookkeeping, not a message serialization,
   and must not perturb the encode-once accounting that
   {!Wire.encode_calls} tests pin. *)
let signing_payload ~cache ~encoded body =
  if content_addressed body then begin
    let e =
      Wire.encoder
        ~size_hint:
          (match body_size_with ca_request_size body with
          | Some n -> 1 + n
          | None -> 512)
        ()
    in
    Wire.u8 e 0xCA;
    encode_body_with e ~request:(ca_request cache) ~envelope:(digested cache) body;
    Wire.to_string e
  end
  else encoded ()

let make_request ~cache cfg ~client ~ts ~kind ~op =
  let sha = Bp_crypto.Verify_cache.sha_memo () in
  let payload = request_signing_payload ~cache ~sha ~client ~ts ~kind ~op in
  let client_sig =
    Bp_crypto.Verify_cache.sign cache ~signer:(Config.identity cfg client) payload
  in
  { client; ts; kind; op; client_sig; decoded = Not_decoded; executions = 0; sha }

let request_valid ~cache cfg r =
  let payload =
    request_signing_payload ~cache ~sha:r.sha ~client:r.client ~ts:r.ts
      ~kind:r.kind ~op:r.op
  in
  Bp_crypto.Verify_cache.verify cache ~signer:(Config.identity cfg r.client)
    ~msg:payload ~signature:r.client_sig

(* Batched spelling of [List.for_all (request_valid ~cache cfg)]: the
   per-request payloads and identities are derived first, then every
   signature checks as one counted batch. *)
let requests_valid ~cache cfg batch =
  match batch with
  | [] -> true
  | [ r ] -> request_valid ~cache cfg r
  | _ ->
      let jobs =
        List.map
          (fun r ->
            let payload =
              request_signing_payload ~cache ~sha:r.sha ~client:r.client
                ~ts:r.ts ~kind:r.kind ~op:r.op
            in
            {
              Bp_crypto.Verify_cache.signer = Config.identity cfg r.client;
              msg = payload;
              signature = r.client_sig;
            })
          batch
      in
      List.for_all Fun.id (Bp_crypto.Verify_cache.verify_batch cache jobs)

(* Hashes each request's image on its own: the request's encoding, with
   its op replaced by the op's digest when the batch is heavy enough to
   be content-addressed. *)
let batch_digest ~cache batch =
  let ctx = Bp_crypto.Sha256.init () in
  let content_addressed = batch_weight batch >= ca_min_bytes in
  List.iter
    (fun r ->
      let op =
        if content_addressed then
          Bp_crypto.Verify_cache.digest_with cache r.sha r.op
        else r.op
      in
      Bp_crypto.Sha256.update ctx
        (Wire.encode
           ~size_hint:(request_size_with r ~op_size:(Wire.string_size op))
           (fun e -> encode_request_with e r op)))
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
  let payload = signing_payload ~cache ~encoded:(fun () -> encoded) body in
  let signature =
    Bp_crypto.Verify_cache.sign cache ~signer:(Config.identity cfg sender)
      payload
  in
  Wire.encode
    ~size_hint:(Wire.string_size encoded + Wire.string_size signature)
    (fun e ->
      Wire.string e encoded;
      Wire.string e signature)

let seal_forged cfg ~sender body =
  ignore (Config.identity cfg sender);
  let encoded = encode_body body in
  Wire.encode (fun e ->
      Wire.string e encoded;
      Wire.string e (String.make 32 '\x00'))

type Bp_sim.Network.hint += Sealed of { envelope : string; body : body }

let seal_with_hint ~cache cfg ~sender body =
  let envelope = seal ~cache cfg ~sender body in
  (envelope, Sealed { envelope; body })

(* Decode and check the signature against the identity the body itself
   claims ([sender_of]), so a node cannot speak for another. The body is
   decoded from its window of the envelope; its bytes are copied out only
   when they are themselves the signed payload (a body under the
   content-addressing cutoff). The envelope's framing is checked first,
   so a malformed envelope fails exactly as a decode of the whole
   envelope would. A [Sealed] hint for this very string stands in for the
   body decode alone: the body it carries is the one [s] was sealed
   from, so the sender check and the signature check run on it
   unchanged. *)
let verify_envelope ~cache ?hint cfg s =
  match
    Wire.decode s (fun d ->
        let off, len = Wire.read_string_window d in
        let signature = Wire.read_string d in
        (off, len, signature))
  with
  | Error e -> Error e
  | Ok (off, len, signature) -> (
      match
        match hint with
        | Some (Sealed { envelope; body }) when envelope == s -> Ok body
        | _ -> Wire.decode_sub s ~off ~len read_body
      with
      | Error e -> Error e
      | Ok body -> (
          match sender_of cfg body with
          | None -> Error "no sender identity"
          | Some sender ->
              let payload =
                signing_payload ~cache
                  ~encoded:(fun () -> String.sub s off len)
                  body
              in
              if
                Bp_crypto.Verify_cache.verify cache
                  ~signer:(Config.identity cfg sender) ~msg:payload ~signature
              then Ok body
              else Error "bad signature"))
