(** Whole-system deployment: one Blockplane unit per participant
    (3fi+1 nodes in its datacenter), the user API per participant,
    communication daemons and reserves between every pair, and the geo
    layer when fg > 0. Participants map 1:1 onto the topology's
    datacenters; node [i] of participant [p] lives at address [(p, i)]. *)

type t

val create :
  network:Bp_sim.Network.t ->
  n_participants:int ->
  ?fi:int ->
  ?fg:int ->
  ?scheme:Bp_crypto.Signer.scheme ->
  ?batch_max:int ->
  ?batch_min_fill:int ->
  ?batch_hold:Bp_sim.Time.t ->
  ?max_in_flight:int ->
  ?shard_map:Shard.map ->
  ?cache:bool ->
  app:(module App.S) ->
  unit ->
  t
(** [app] is the user protocol: every node gets a fresh instance, made by
    {!Shard.instance} with its own participant (so all nodes of a unit
    start identical; the wrapper gives the cross-shard commit steps their
    meaning and hands every other record to [app]). Defaults: fi = 1,
    fg = 0, HMAC signatures.
    [batch_min_fill] / [batch_hold] configure the primary's adaptive
    batch-cut policy (see {!Bp_pbft.Config}); the defaults reproduce the
    seed's cut-on-any-signal behaviour. Mirror sets
    (fg > 0) are each participant's other datacenters ordered by RTT.
    [shard_map] (default: one shard) partitions the keyspace across the
    participants' units — shard [s] is participant [s]'s unit, so the
    map may not have more shards than participants. A {!Shard.router}
    over the units is built either way; with one shard it installs no
    handlers and every submit is the seed-identical direct path.
    [cache] (default on) gives every node and API endpoint its own
    {!Bp_crypto.Verify_cache}; off, each one is created with zero
    capacity and digest budget, so it memoizes nothing. Off is a test
    seam: the zero-capacity cache is the tests' reference model. Which
    bytes get signed does not depend on it, so a run is identical either
    way. *)

val n_participants : t -> int

val shard_map : t -> Shard.map
(** The static shard map this deployment was built with. *)

val shard_router : t -> Shard.t
(** The deployment's shard router: submit keyed transactions here to get
    shard routing and cross-shard two-phase commit over the units. *)

val api : t -> int -> Api.t
(** Participant [p]'s user-space handle. *)

val node : t -> int -> int -> Unit_node.t
(** [node t p i] is node [i] of participant [p]'s unit. *)

val nodes_of : t -> int -> Unit_node.t array

val daemon : t -> src:int -> dest:int -> Comm_daemon.t
(** The active communication daemon for the pair. *)

val reserves : t -> src:int -> dest:int -> Reserve.t list

val geo : t -> int -> Geo.t

val unit_addrs : t -> int -> Bp_sim.Addr.t array

val app_digests_agree : t -> int -> bool
(** Do all honest... all nodes of participant [p] hold identical app
    state? (Test helper; byzantine nodes may diverge deliberately.) *)

val logs_agree : t -> int -> bool
(** Do all of participant [p]'s nodes agree on their common Local Log
    prefix (Lemma 1 check)? *)
