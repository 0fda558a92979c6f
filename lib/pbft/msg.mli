(** PBFT wire messages, with signatures.

    Every message travels as a signed envelope: the encoded body plus a
    signature by the sender's identity. Receivers verify the signature
    against the identity *claimed inside the body* (replica index or
    client address), so a byzantine node cannot impersonate another.

    Two Blockplane-specific extensions over textbook PBFT (§IV-B):
    - requests carry a record-type annotation ([kind]);
    - replicas run a verification routine between the prepared and commit
      phases (see {!Replica.set_verifier}). *)

type decoded = ..
(** A node's decoded view of a request's [op]. The application layer
    extends this type with its own form, so it can decode an op once and
    reuse the value in every verification and execution of the request. *)

type decoded += Not_decoded

type request = {
  client : Bp_sim.Addr.t;
  ts : int;  (** client-local, monotone; (client, ts) identifies a request *)
  kind : int;  (** Blockplane record-type annotation *)
  op : string;
  client_sig : string;
  mutable decoded : decoded;
      (** Memo of [op]'s decoding, shared by every node holding this
          value (with a {!Sealed} hint, the sender and its receivers):
          never encoded, [Not_decoded] when built or decoded, and reset
          once [executions] reaches the cluster size. It must be a pure
          function of [op]. *)
  mutable executions : int;
      (** Replicas that have executed this value: 0 when built or
          decoded, never encoded. *)
  sha : Bp_crypto.Verify_cache.sha_memo;
      (** SHA-256 memo of [op], shared like [decoded]: the first node to
          hash this value's op spares every other holder the pass. Empty
          when built or decoded, never encoded; it answers only for the
          very string it was filled from, so a copy [{ r with op }]
          sharing it still gets its own op's digest. *)
}

type prepared_proof = {
  pview : int;
  pseq : int;
  pdigest : string;
  pbatch : request list;
  prepares : string list;
      (** the signed Prepare envelopes the reporting replica verified
          for ([pview], [pseq], [pdigest]): valid from 2f distinct
          replicas, they prove the batch prepared *)
}

type view_change = {
  new_view : int;
  stable_seq : int;  (** the reporter's stable checkpoint *)
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
          (** the certificate: signed View_change envelopes for [view].
              Every replica derives the re-proposed batches from it
              ({!Replica.new_view_batches}), so none travel. *)
      replica : int;
    }
  | Fetch of { from_seq : int; replica : int }
      (** state transfer: a lagging replica asks peers for executed
          batches starting at [from_seq] *)
  | Fetch_reply of {
      batches : (int * string * request list) list;  (** seq, digest, batch *)
      replica : int;
    }

(** {1 Content-addressed signing}

    Signatures over bulky messages (Request, Pre_prepare,
    View_change, New_view, Fetch_reply) cover a {e content-addressed}
    payload — the structural encoding with each client operation (and each
    carried view-change envelope) replaced by its SHA-256 digest — so the
    signature pass touches kilobytes instead of megabytes while binding
    the same content. Small messages sign their exact encoding, as do
    bulky constructors whose content weighs under a fixed cutoff (256
    bytes) — below it the transform saves nothing and the extra encoding
    pass and hash would tax tiny-operation workloads. That weight is the
    one signing rule: a pure function of the message, so all parties agree
    on the payload.

    Every signing and checking function takes the calling principal's
    [cache]: the keystore it was created over signs and verifies, and it
    memoizes digests and verdicts per node. How much the
    cache keeps (a zero-capacity one included) never changes any
    produced byte or verdict — only how fast they come back. *)

val make_request :
  cache:Bp_crypto.Verify_cache.t ->
  Config.t ->
  client:Bp_sim.Addr.t ->
  ts:int ->
  kind:int ->
  op:string ->
  request
(** Builds and client-signs a request. *)

val request_valid : cache:Bp_crypto.Verify_cache.t -> Config.t -> request -> bool

val requests_valid :
  cache:Bp_crypto.Verify_cache.t -> Config.t -> request list -> bool
(** Conjunction of {!request_valid} over the batch, with the signature
    checks of two or more requests counted as one
    {!Bp_crypto.Verify_cache.verify_batch}. Verdict is identical to the
    sequential fold; the only observable difference is that verification
    does not short-circuit at the first invalid request. *)

val batch_digest : cache:Bp_crypto.Verify_cache.t -> request list -> string
(** Digest of a batch proposal. Above the content-weight cutoff this
    hashes the requests' content-addressed images (same value for the
    same batch whatever the cache keeps). *)

val encode_body : body -> string

val body_size : body -> int option
(** The exact length of [encode_body body]; [None] for the
    list-carrying [View_change], [New_view] and [Fetch_reply]. *)

val decode_body : string -> (body, string) result

val sender_of : Config.t -> body -> Bp_sim.Addr.t option
(** The address whose identity must have signed [body]: its replica
    index, the view's primary for a pre-prepare, or the request's
    client. [None] for an out-of-range replica index. *)

val signing_payload :
  cache:Bp_crypto.Verify_cache.t ->
  encoded:(unit -> string) ->
  body ->
  string
(** The bytes an envelope signature over [body] covers: its
    content-addressed image above the cutoff, else [encoded ()], the
    body's exact wire encoding (called only in that case). *)

val seal :
  cache:Bp_crypto.Verify_cache.t ->
  Config.t ->
  sender:Bp_sim.Addr.t ->
  body ->
  string
(** Sign with [sender]'s identity and wrap into an envelope. *)

val seal_forged : Config.t -> sender:Bp_sim.Addr.t -> body -> string
(** Test hook: envelope with a garbage signature (models a node that
    cannot actually sign for the identity it impersonates). *)

type Bp_sim.Network.hint +=
  | Sealed of { envelope : string; body : body }
        (** [envelope] is [seal … body]. A sender attaches it to the
            envelope it sends ({!Bp_net.Transport.send}'s [hint]), so a
            receiver in the same process shares [body] — its request
            records and their op strings — instead of decoding a copy.
            It is trusted to be the decoding of [envelope]'s body, so
            build it with {!seal_with_hint}. *)

val seal_with_hint :
  cache:Bp_crypto.Verify_cache.t ->
  Config.t ->
  sender:Bp_sim.Addr.t ->
  body ->
  string * Bp_sim.Network.hint
(** {!seal}, and the [Sealed] hint to send with the envelope. *)

val verify_envelope :
  cache:Bp_crypto.Verify_cache.t ->
  ?hint:Bp_sim.Network.hint ->
  Config.t ->
  string ->
  (body, string) result
(** Decode and verify: the signature must check against the address the
    body itself names (its replica index, the view's primary for a
    pre-prepare, or the request's client).

    A [Sealed { envelope; body }] [hint] is used only when [envelope] is
    the very string checked ([==]), and then only in place of decoding
    the body: the envelope's framing is still decoded, and the sender and
    the signature over [body]'s signing payload are checked as without
    it, through the same cache calls. So a hint never makes a malformed
    envelope or a bad signature pass, and the result, the verdict and the
    cache's counters are those of the hintless call; the only difference
    is that an [Ok] body is the hint's own value, sharing its strings
    and its requests' [decoded] memos with the sender. Any other hint
    is ignored. *)
