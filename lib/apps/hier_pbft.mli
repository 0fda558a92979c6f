(** The "Hierarchical PBFT" baseline of §VIII-D.

    Same communication pattern as Blockplane-Paxos — PBFT inside each
    datacenter, and the same benign Paxos core ({!Bp_paxos.Replica})
    across the wide area — but *without* the Blockplane API separation:
    protocol steps are committed in the local PBFT log, while wide-area
    messages go directly over the network (no transmission-record
    signing, no receive-side commitment before processing). Its latency
    therefore falls between plain Paxos and Blockplane-Paxos (Fig. 7). *)

type t

val create :
  network:Bp_sim.Network.t ->
  n_participants:int ->
  ?fi:int ->
  unit ->
  t
(** Builds one PBFT cluster of 3fi+1 nodes per datacenter (tags
    ["h<p>"]) plus a replication agent per participant. *)

val elect : t -> leader:int -> on_elected:(bool -> unit) -> unit
(** Paxos leader election from [leader]'s agent; [false] if a promise
    was refused. Each promise is committed in its sender's local PBFT
    log before it is sent. *)

val replicate : t -> leader:int -> string -> on_committed:(unit -> unit) -> unit
(** Replication round driven from [leader], which must have won {!elect}:
    locally commit the intent, send proposals to the other participants,
    each locally commits its accept and replies, the leader locally
    commits the decision once a majority answered.
    @raise Failure if [leader] does not lead. *)

val decided_count : t -> int -> int
(** Values decided at a participant's agent. *)
