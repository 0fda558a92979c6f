(** Append-only log with a SHA-256 hash chain.

    Every Blockplane node keeps its copy of the Local Log in one of these.
    Entry [i]'s digest is [H(digest_(i-1) ‖ H(payload_i))], so it commits
    to the whole prefix: two replicas agree on a prefix iff they agree on
    a single digest — the cheap way to audit agreement in tests and to
    catch up lagging replicas. *)

type t

type entry = { index : int; payload : string; digest : string }

val create : unit -> t

val append : t -> payload_digest:string -> string -> entry
(** Append a payload, given its SHA-256 [payload_digest] (the caller
    usually holds it already); returns the entry with its chained
    digest. A wrong [payload_digest] is caught by {!verify_chain}. *)

val length : t -> int

val get : t -> int -> entry option

val payload_exn : t -> int -> string
(** @raise Invalid_argument if out of range. *)

val last_digest : t -> string
(** Digest of the latest entry, or the genesis digest when empty. *)

val digest_at : t -> int -> string
(** Digest after [n] entries; [digest_at t 0] is the genesis digest.
    @raise Invalid_argument if [n] exceeds the length. *)

val iter_from : t -> int -> (entry -> unit) -> unit
(** Apply to every entry with index >= the given one, in order. *)

val verify_chain : t -> bool
(** Recompute the chain, re-hashing every payload; [false] if any stored
    digest mismatches (detects in-memory tampering in byzantine tests). *)

val tamper : t -> int -> string -> unit
(** Overwrite a payload without fixing digests — test-only hook for
    modelling a byzantine node rewriting its log. *)
