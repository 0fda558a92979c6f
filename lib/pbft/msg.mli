(** PBFT wire messages, with signatures.

    Every message travels as a signed envelope: the encoded body plus a
    signature by the sender's identity. Receivers verify the signature
    against the identity *claimed inside the body* (replica index or
    client address), so a byzantine node cannot impersonate another.

    Two Blockplane-specific extensions over textbook PBFT (§IV-B):
    - requests carry a record-type annotation ([kind]);
    - replicas run a verification routine between the prepared and commit
      phases (see {!Replica.set_verifier}). *)

type request = {
  client : Bp_sim.Addr.t;
  ts : int;  (** client-local, monotone; (client, ts) identifies a request *)
  kind : int;  (** Blockplane record-type annotation *)
  op : string;
  client_sig : string;
}

type prepared_proof = {
  pview : int;
  pseq : int;
  pdigest : string;
  pbatch : request list;
  prepare_sigs : (int * string) list;  (** replica id, prepare signature *)
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
      view_change_envelopes : string list;  (** signed View_change envelopes *)
      batches : (int * string * request list) list;  (** seq, digest, batch *)
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
    [cache]: its keystore ({!Bp_crypto.Verify_cache.keystore}) signs and
    verifies, and it memoizes digests and verdicts per node. How much the
    cache keeps (a zero-capacity one under [--no-cache]) never changes any
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
    checks fanned out as one [Bp_crypto.Verify_batch] batch (through the
    process-global context, so [--verify-jobs] applies). Verdict is
    identical to the sequential fold at any worker count; the only
    observable difference is that verification does not short-circuit at
    the first invalid request. *)

val batch_digest : cache:Bp_crypto.Verify_cache.t -> request list -> string
(** Digest of a batch proposal. Above the content-weight cutoff this
    hashes the requests' content-addressed images (same value for the
    same batch whatever the cache keeps). *)

val encode_body : body -> string
val decode_body : string -> (body, string) result

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

val verify_envelope :
  cache:Bp_crypto.Verify_cache.t -> Config.t -> string -> (body, string) result
(** Decode and verify: the signature must check against the address the
    body itself names (its replica index, the view's primary for a
    pre-prepare, or the request's client). *)
