(** The user-protocol interface (§III-C).

    A protocol [P] byzantized by Blockplane supplies a deterministic state
    machine plus verification routines. Every Blockplane node in the unit
    runs one instance; instances start identical and evolve only through
    {!S.apply} on committed Local Log records, so all honest copies agree.

    [verify] is the programmer-written verification routine: replicas call
    it (against their own replayed state) between the PBFT prepared and
    commit phases, and an honest primary also pre-screens with it. It must
    be a pure function of [(state, record)]. *)

module type S = sig
  type state

  val create : participant:int -> n_participants:int -> state
  (** A fresh replica for a node of participant [participant]'s unit, in
      a deployment of [n_participants]. Every node of the unit gets the
      same arguments, so its copies start identical; this is how an app
      learns which participant it serves. *)

  val verify : state -> Record.t -> bool
  (** Is this record a legal next state transition? For [Recv] records the
      middleware has already enforced the built-in receive checks (f+1
      source signatures, ordering, no duplicates) before asking. *)

  val apply : state -> hash:(string -> string) -> Record.t -> unit
  (** Incorporate a committed record. Must be deterministic. [hash] is
      SHA-256, served from the executing node's digest memo where it can
      be; an app that digests record content should use it. *)

  val digest : state -> string
  (** State digest, for cross-replica agreement checks in tests. *)

  val describe : state -> string
  (** Human-readable snapshot (examples, debugging, state inspection). *)
end

type instance = Instance : (module S with type state = 's) * 's -> instance

val make : (module S) -> participant:int -> n_participants:int -> instance
val verify : instance -> Record.t -> bool
val apply : instance -> hash:(string -> string) -> Record.t -> unit
val digest : instance -> string
val describe : instance -> string

(** A trivial app that accepts everything and only folds records into a
    digest, [H(state ‖ hash (Record.encode record))] — useful for
    measuring pure middleware cost. *)
module Null : S
