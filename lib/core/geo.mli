(** Geo-correlated fault tolerance (§V).

    With [fg > 0], a participant's commits only count once [fg] other
    participants (out of its chosen mirror set of up to [2fg+1]) have
    durably mirrored the entry and attested it with [fi+1] local
    signatures. The proof bundles are kept as annotations of the proved
    entry and travel inside transmission records.

    Mirrors store entries *through their own unit's PBFT* (as [Mirrored]
    records in their Local Log), realising the paper's "participants
    maintain mirrors of each others' states on 3fi+1 nodes [that]
    co-locate with the Blockplane nodes used for local commitment".

    A heartbeat failure detector reroutes proof requests around suspected
    (crashed) mirror participants, which is what Fig. 8(a) measures; full
    primary takeover (Fig. 8(b)) is orchestrated by the caller using
    {!on_suspect}. *)

module Agent : sig
  type t

  val install : Unit_node.t -> t
  (** Serve mirror duties on a node: handle [Mirror_request] (commit the
      entry locally, gather fi+1 attestations, answer with a
      [Mirror_proof]) and [Mirror_sign_request]. Install on every node of
      every unit that may act as a mirror. *)
end

type t

val create :
  node:Unit_node.t ->
  fg:int ->
  mirror_set:int list ->
  all_unit_nodes:(int -> Bp_sim.Addr.t array) ->
  unit ->
  t
(** The proving coordinator for one participant, hosted on [node] (its
    unit's node 0). [mirror_set] lists other participants in preference
    order (normally by RTT); only the first [fg] live ones are asked.
    Every record executed on the host node automatically starts proving. *)

val wait_proved : t -> pos:int -> (unit -> unit) -> unit
(** Run the callback once entry [pos] has [fg] proof bundles (immediately
    if already proved, or if [fg = 0]). *)

val proofs_for :
  t -> pos:int -> on_ready:((int * (string * string) list) list -> unit) -> unit
(** Daemon-facing: the proof bundles for a position, once available. *)

val is_proved : t -> pos:int -> bool

val current_targets : t -> int list
(** The fg mirror participants currently being asked (changes under
    suspicion). *)

val on_suspect : t -> (int -> unit) -> unit
(** Register for mirror-participant suspicion events. *)
