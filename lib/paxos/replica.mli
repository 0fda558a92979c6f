(** A multi-decree Paxos node (acceptor + learner + potential leader).

    Mirrors the structure of the paper's Algorithm 3: a [LeaderElection]
    routine (phase 1 over all instances) and a [Replication] routine
    (phase 2 per value). Used directly as the plain-Paxos baseline of
    Fig. 7, and — rebuilt on top of the Blockplane API — as
    Blockplane-Paxos.

    All nodes are symmetric; any node may call {!try_lead}. A node that
    observes a higher ballot (nack) silently steps down, matching
    [l = false] in Algorithm 3. *)

type config = {
  nodes : Bp_sim.Addr.t array;  (** node id [i] lives at [nodes.(i)] *)
  election_timeout : Bp_sim.Time.t;
      (** retry interval for auto-elections (see [auto_retry]) *)
}

type t

val create :
  ?auto_retry:bool ->
  Bp_net.Transport.t ->
  config ->
  id:int ->
  on_learn:(int -> string -> unit) ->
  t
(** Installs the paxos handler on the transport. [on_learn] fires exactly
    once per (instance, chosen value) on this node, in arbitrary instance
    order. With [auto_retry] (default false), a failed or timed-out
    election is retried with a higher ballot after a randomized backoff —
    needed for liveness under duelling proposers. *)

val id : t -> int
val is_leader : t -> bool

val try_lead : t -> on_elected:(unit -> unit) -> unit
(** Run the leader-election routine. [on_elected] fires if this attempt
    wins a majority of promises; a nacked attempt just gives up (unless
    [auto_retry]). *)

val propose : t -> string -> on_commit:(int -> unit) -> unit
(** Replication routine. Must be leader.
    @raise Failure if this node is not the leader. [on_commit] fires when
    a majority has accepted (the instant the paper measures as the
    Replication-phase latency). *)

val chosen : t -> int -> string option
(** Learned value for an instance. *)

exception Conflicting_choice of int * string * string
(** Raised if two different values are ever learned for one instance — a
    safety violation; tests rely on it never firing. *)
