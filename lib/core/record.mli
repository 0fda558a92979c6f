(** Local Log records (§III-B).

    A participant's Local Log holds two kinds of events written by the
    user protocol — log-commit records and communication records — plus
    received transmission records committed on the receiver's side.
    The kind doubles as the PBFT request annotation (§IV-B). *)

type kind = Log_commit | Communication | Received | Mirror

val kind_to_int : kind -> int

type communication = {
  dest : int;  (** destination participant *)
  comm_seq : int;
      (** per-(source, destination) sequence number; the paper's "pointer
          to the previous communication record to the same destination"
          is [comm_seq - 1] *)
  payload : string;
}

type transmission = {
  src : int;
  tdest : int;
  tcomm_seq : int;
  log_pos : int;  (** position of the communication record in the source's Local Log *)
  tpayload : string;
  proofs : (string * string) list;
      (** fi+1 (signer identity, signature) pairs from the source unit *)
  geo_proofs : (int * (string * string) list) list;
      (** with fg>0: per-participant proof bundles (§V) *)
}

type t =
  | Commit of string  (** user state-change event *)
  | Comm of communication  (** a [send] not yet transmitted *)
  | Recv of transmission  (** a received transmission record *)
  | Mirrored of { owner : int; opos : int; ovalue : string }
      (** geo layer (§V): a durable copy of entry [opos] of participant
          [owner]'s Local Log, co-located in this unit's log. Invisible to
          the user protocol. *)

val kind_of : t -> kind

val encode : t -> string
val decode : string -> (t, string) result

val encode_sig_list : Bp_codec.Wire.encoder -> (string * string) list -> unit
(** A list of (signer identity, signature) pairs, as every proof bundle
    in a record or a {!Proto} message is written. *)

val decode_sig_list : Bp_codec.Wire.decoder -> (string * string) list

val transmission_statement : digest:(string -> string) -> transmission -> string
(** The byte string that source-unit nodes sign to attest a transmission
    record (everything except the proofs themselves). [digest] must compute
    SHA-256 of its argument: a node passes its
    {!Bp_crypto.Verify_cache.digest}, so the payload is hashed once per
    node. *)

val comm_image : transmission -> t
(** The communication record this transmission claims to carry — what the
    source appended to its Local Log. Its encoding is the content that
    geo mirror statements attest (§V). *)
