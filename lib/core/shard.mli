(** Multi-unit keyspace sharding (ROADMAP: "Multi-unit sharding with
    byzantine cluster-sending").

    The paper runs ONE logical log mirrored across participants; this
    layer runs N independent Blockplane units — one per participant —
    and partitions the keyspace across them with a static shard map. A
    single-shard operation is routed directly to the owning unit's API
    (one ordinary log-commit on its primary, the exact seed path), while
    a cross-shard transaction is driven through a BFT two-phase commit
    in the style of Zhao's byzantine-fault-tolerant commit protocol
    (PAPERS.md): every 2PC step is itself a committed record in a
    participant unit's Local Log, so no single node — not even the
    coordinator's primary — can equivocate about the outcome.

    Protocol, for a transaction touching shards [S] with deterministic
    coordinator [c = min S]:

    + the router commits an [Xs_prepare] record carrying the shard's
      slice of the ops to every participant's log (the coordinator's own
      prepare is its YES vote; the others send their votes back over the
      ordinary communication path — commit-then-transmit, so each vote
      rides the cluster-sending/reserve machinery of §IV);
    + a prepare that fails the unit's verification routine (f+1 replicas
      pre-reject, the PR 5 [__rejected] downgrade) is that shard's NO
      vote — the op slice never stages;
    + on all-YES the coordinator commits [Xs_decide commit=true] and
      transmits the decision; on any NO — or on local timeout — it
      commits [Xs_decide commit=false] (a deterministic no-op downgrade:
      a decide for an unstaged txid applies nothing);
    + each participant commits the decide in its own log; only that
      committed decide applies the staged ops (see
      {!Unit_node.replay}'s staging semantics), then acknowledges, and
      the transaction completes at the coordinator when every
      participant has applied.

    With [fi] byzantine nodes per unit the usual PBFT bound holds inside
    every step: prepares, votes (communication + received records) and
    decides are all log-committed, so 2fi+1 honest-majority quorums
    agree on each, and the coordinator's decision is a deterministic
    function of committed evidence. *)

(** How keys map to shards. *)
type policy =
  | Hash  (** CRC-32 of the key, mod the shard count. *)
  | Range of string array
      (** [Range splits] with [splits] sorted ascending: keys strictly
          below [splits.(0)] land on shard 0, keys in
          [[splits.(i-1), splits.(i))] on shard [i], the rest on the
          last shard. Needs exactly [shards - 1] split points. *)

type map
(** A static shard map: the shard count plus the routing policy. Carried
    in {!Deployment}; every router and every test derives routing from
    the same map, so placement is deterministic. *)

val make : ?policy:policy -> shards:int -> unit -> map
(** Default policy is [Hash].
    @raise Invalid_argument on [shards < 1] or an ill-formed [Range]
    (wrong split count, unsorted or duplicate splits). *)

val shards : map -> int
val policy : map -> policy

val shard_of_key : map -> string -> int

val shards_of_keys : map -> string list -> int list
(** Distinct owning shards, sorted ascending. *)

val coordinator : map -> int list -> int
(** The deterministic coordinator of a participating-shard set: the
    minimum shard. @raise Invalid_argument on an empty list. *)

val key_for : map -> shard:int -> salt:int -> string
(** A key that routes to [shard] under this map — [Range]: derived from
    the split points directly; [Hash]: found by bounded probing over
    salted candidates. Deterministic in [(map, shard, salt)]; load
    generators use it to target shards without rejection sampling.
    @raise Invalid_argument if [shard] is out of range. *)

(** {1 Router} *)

type stats = {
  single_shard : int;  (** ops routed straight to one unit's primary *)
  cross_shard : int;  (** transactions that needed the 2PC path *)
  committed : int;  (** cross-shard transactions decided commit *)
  aborted : int;  (** cross-shard transactions decided abort *)
  prepares_rejected : int;  (** NO votes observed (rejected prepares) *)
  timeouts : int;  (** aborts forced by the coordinator's timer *)
}

type t

val router :
  map:map ->
  engine:Bp_sim.Engine.t ->
  api:(int -> Api.t) ->
  t
(** [api i] must be participant [i]'s API handle, for every shard in the
    map. With more than one shard the router installs an
    {!Api.on_receive} handler on each participant to carry the 2PC
    messages (votes and decides travel as ordinary communication
    records); with one shard it installs nothing and every submit is the
    seed-identical direct path. The coordinator waits 2 s of simulated
    time for votes and applied-acks before downgrading to abort. *)

val stats : t -> stats

val submit :
  t ->
  ?on_aborted:(unit -> unit) ->
  on_done:(unit -> unit) ->
  (string * string) list ->
  unit
(** Route a transaction of [(key, op)] pairs. A single op on a single
    shard is an ordinary {!Api.log_commit} of the raw op (byte-identical
    to the unsharded path); several ops on one shard commit as one
    atomic record; ops spanning shards run the two-phase commit.
    [on_done] fires once every participant shard has applied;
    [on_aborted] (default: ignore) fires after the coordinator's abort
    decision commits. @raise Invalid_argument on an empty [ops]. *)
