(** Reference envelope verification: the original decode-then-decode
    path of [Bp_pbft.Msg.verify_envelope].

    It decodes the whole envelope into two strings (the encoded body and
    the signature), then decodes the body from its own copy. Retained as
    the test suite's model for the production path, which decodes the
    body from its window of the envelope: on every input the two must
    give the same result and leave the verify cache with the same
    counters. Not for production use. *)

val verify_envelope :
  cache:Bp_crypto.Verify_cache.t ->
  Bp_pbft.Config.t ->
  string ->
  (Bp_pbft.Msg.body, string) result

val signing_payload : cache:Bp_crypto.Verify_cache.t -> Bp_pbft.Msg.body -> string
(** Reference signing payload: the original construction of
    [Bp_pbft.Msg.signing_payload]. Above the 256-byte content weight it
    builds the content-addressed image as a body first (each op and
    carried view-change envelope replaced by its digest through [cache])
    and returns [0xCA ‖ encode_body image]; below it, the body's plain
    encoding. The production path writes the same image straight into its
    encoder; on every body the two must give the same bytes and leave the
    cache with the same counters. Not for production use. *)
