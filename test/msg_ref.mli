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
