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

val transmission_statement : ?digest:(string -> string) -> transmission -> string
(** The byte string that source-unit nodes sign to attest a transmission
    record (everything except the proofs themselves). [digest] must compute
    SHA-256 of its argument; pass {!Bp_crypto.Verify_cache.digest} to reuse
    a node's memoized payload digest (default: the plain digest). *)

val chain_genesis : string
(** Anchor of the per-(source, destination) statement chain: the chain
    digest "before" comm_seq 0. *)

val chain_step :
  digest:(string -> string) -> prev:string -> stmt_digest:string -> string
(** One link of the statement chain:
    [chain k = chain_step ~prev:(chain (k-1)) ~stmt_digest:(digest
    (transmission_statement tr_k))]. Binding each statement to the whole
    prefix is what lets a single chain-head signature vouch for every
    earlier record of the stream (cluster-sending, Hellings & Sadoghi). *)

val chain_statement : src:int -> dest:int -> head_seq:int -> head:string -> string
(** The byte string a source-unit node signs to attest chain digest
    [head] at [head_seq] of its (src, dest) stream — the single-signature
    payload of a cluster-sending probe. *)

val proof_units : string -> int
(** Signature-bundle size carried by an encoded record: the number of
    unit proofs plus geo proofs embedded in a [Recv], 0 for every other
    form (and for undecodable bytes). This is the per-request argument
    for {!Bp_pbft.Config.extra_verify_units} — under the modeled
    verification cost, every replica of the receiving unit pays for
    checking the bundle before voting. *)

val strip_proofs : transmission -> transmission
(** Proofs and geo-proofs cleared — the canonical form stored in the
    receiver's log (signatures are checked, not re-stored). *)

val comm_image : transmission -> t
(** The communication record this transmission claims to carry — what the
    source appended to its Local Log. Its encoding is the content that
    geo mirror statements attest (§V), shared by the receive-verification
    and prefetch paths. *)

val signature_jobs :
  statement:string -> (string * string) list -> (string * string * string) list
(** Pair every [(identity, signature)] of a proof bundle with the
    statement it must attest: [(identity, statement, signature)] triples
    ready to become [Bp_crypto.Verify_batch] jobs. *)

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
