(** A multi-decree Paxos node (acceptor + learner + potential leader).

    Mirrors the structure of the paper's Algorithm 3: a [LeaderElection]
    routine (phase 1 over all instances) and a [Replication] routine
    (phase 2 per value). This one protocol core runs unchanged in all
    three Paxos-pattern columns of Fig. 7: over the plain transport
    ({!create}), and behind the Blockplane API or local PBFT clusters
    ({!of_net}, used by [Bp_apps.Byz_paxos] and [Bp_apps.Hier_pbft]).

    All nodes are symmetric; any node may call {!try_lead}. A node that
    observes a higher ballot (nack) steps down, matching [l = false] in
    Algorithm 3, and reports it through the attempt's [on_nack]. *)

type config = {
  nodes : Bp_sim.Addr.t array;  (** node id [i] lives at [nodes.(i)] *)
  election_timeout : Bp_sim.Time.t;
      (** retry interval for auto-elections (see [auto_retry]) *)
}

type net = {
  send : dst:int -> Msg.t -> unit;  (** to node id [dst], possibly self *)
  broadcast : Msg.t -> unit;  (** to every node, self included *)
}
(** The protocol's only seam: how its messages reach the other nodes.
    Whatever delivers a message calls {!receive} on the destination. *)

type t

val create :
  ?auto_retry:bool ->
  Bp_net.Transport.t ->
  config ->
  id:int ->
  on_learn:(int -> string -> unit) ->
  t
(** A node over the plain transport: broadcasts are encoded once, and
    the paxos handler is installed on the transport. [on_learn] fires
    exactly once per (instance, chosen value) on this node, in arbitrary
    instance order. With [auto_retry] (default false), a timed-out
    election is retried with a higher ballot after a randomized backoff —
    needed for liveness under duelling proposers. *)

val of_net : net -> n:int -> id:int -> on_learn:(int -> string -> unit) -> t
(** Node [id] of [n] over a caller-supplied network, which must hand
    every message addressed to this node to {!receive}. No auto-retry. *)

val receive : t -> src:int -> Msg.t -> unit
(** Deliver a message from node id [src]. *)

val is_leader : t -> bool

val try_lead : ?on_nack:(unit -> unit) -> t -> on_elected:(unit -> unit) -> unit
(** Run the leader-election routine. [on_elected] fires if this attempt
    wins a majority of promises; [on_nack] (default: nothing) fires if a
    promise is refused, and the attempt gives up. *)

val propose :
  ?on_nack:(unit -> unit) -> t -> string -> on_commit:(int -> unit) -> unit
(** Replication routine. Must be leader.
    @raise Failure if this node is not the leader. [on_commit] fires when
    a majority has accepted (the instant the paper measures as the
    Replication-phase latency). [on_nack] (default: nothing) fires if an
    acceptor refuses the value; this node has then stepped down. *)

val chosen : t -> int -> string option
(** Learned value for an instance. *)

exception Conflicting_choice of int * string * string
(** Raised if two different values are ever learned for one instance — a
    safety violation; tests rely on it never firing. *)
