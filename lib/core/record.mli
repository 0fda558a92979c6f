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

(** {1 Cross-shard transaction records}

    The shard layer ({!Shard}) drives its BFT two-phase commit through
    ordinary log-commit records: a reserved ["__xs:"] payload prefix
    marks the prepare / apply / decide entries each participant shard
    appends to its own Local Log. Middleware-internal, like read markers
    — {!Unit_node} gives them their staging semantics and the user
    protocol only ever sees the enclosed ops as plain commits. *)

type xs =
  | Xs_prepare of { txid : string; ops : (string * string) list }
      (** Stage [(key, op)] pairs under [txid]; committed by every
          participant shard as its YES vote. *)
  | Xs_apply of { txid : string; ops : (string * string) list }
      (** Single-shard multi-op transaction: apply immediately, no
          staging round-trip needed. *)
  | Xs_decide of { txid : string; commit : bool }
      (** The coordinator's decision, committed in every participant's
          log; applies the staged ops in order, or drops them. A decide
          for an unknown [txid] is a deterministic no-op. *)

val xs_payload : xs -> string
(** The ["__xs:"]-prefixed log-commit payload encoding this step. *)

val is_xs_payload : string -> bool

val xs_of_payload : string -> [ `Not_xs | `Xs of xs | `Malformed ]
(** [`Malformed] is an xs-prefixed payload whose body does not decode —
    verification routines reject these ([`Not_xs] payloads are ordinary
    user commits). *)
