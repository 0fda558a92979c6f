(** Shared experiment machinery: deterministic worlds over the paper's
    AWS topology and CPS-style measurement loops (the simulator is
    event-driven, so sequential workloads are chained through callbacks). *)

type world = {
  engine : Bp_sim.Engine.t;
  net : Bp_sim.Network.t;
  dep : Blockplane.Deployment.t;
}

val fresh_world :
  ?fi:int ->
  ?fg:int ->
  ?seed:int64 ->
  ?n_participants:int ->
  ?scheme:Bp_crypto.Signer.scheme ->
  ?batch_max:int ->
  ?batch_min_fill:int ->
  ?batch_hold:Bp_sim.Time.t ->
  ?max_in_flight:int ->
  ?shard_map:Blockplane.Shard.map ->
  ?app:(module Blockplane.App.S) ->
  unit ->
  world
(** A deterministic world: engine, network and deployment, on the
    paper's Table I topology; when [n_participants] exceeds its four
    regions the topology is {!Bp_sim.Topology.tiled} over it, so
    scale-out worlds get one datacenter per unit at fixed per-unit
    resources. Each experiment fixes its own worlds: every argument
    passes through to {!Blockplane.Deployment.create} (default: one
    shard, caches on), except [max_in_flight], which defaults to 1
    (stop-and-wait, the depth the paper's tables are recorded at)
    rather than {!Bp_pbft.Config.make}'s 8. Out-of-range values raise
    [Invalid_argument] from [Deployment.create] / [Config.make]. *)

val flat_pbft :
  seed:int64 ->
  primary:int ->
  client_dc:int ->
  Bp_sim.Engine.t * Bp_sim.Network.t * Bp_pbft.Client.t
(** The flat geo-PBFT baseline (Fig. 7, §III-A): one PBFT replica per
    datacenter of the paper's Table I topology with no Blockplane layer,
    the view-0 primary in datacenter [primary], and a client in
    [client_dc]. Replicas execute every request as ["ok"]. *)

val payload : size:int -> int -> string
(** Deterministic batch contents of the given byte size (the index makes
    successive batches distinct). *)

val client_payload : client:int -> int -> string
(** Op [i] of load-generator client [client]: 1000 deterministic bytes,
    distinct per (client, i). *)

val drive : Bp_sim.Engine.t -> what:string -> finished:(unit -> bool) -> unit
(** Step [engine] until [finished ()] — the one drive loop under every
    workload generator (periodic deployment timers never drain the event
    queue on their own). Fails, naming [what], after 200M events or if
    the queue empties first. *)

val sequential :
  Bp_sim.Engine.t ->
  n:int ->
  warmup:int ->
  run_one:(int -> on_done:(unit -> unit) -> unit) ->
  Bp_util.Stats.t
(** Run [warmup + n] operations strictly one after another; [run_one i]
    must eventually call [on_done ()]. An operation's latency is the
    simulated time from the call of [run_one i] to its [on_done]. Returns
    the latency statistics (ms) of the measured (post-warmup)
    operations. Drives the engine itself. *)

val closed_loop :
  Bp_sim.Engine.t ->
  total:int ->
  outstanding:int ->
  run_one:(int -> on_done:(unit -> unit) -> unit) ->
  Bp_util.Stats.t * Bp_sim.Time.t
(** Run [total] operations keeping up to [outstanding] in flight at
    once (each completion launches the next). Returns the per-operation
    latency statistics and the makespan in simulated time — the basis
    for throughput under concurrency, where {!sequential} can only
    measure stop-and-wait latency. Drives the engine itself. *)

val scaled : float -> int -> int
(** [scaled s n] = max 1 (round (s * n)) — workload scaling. *)

type plan =
  | Plan : {
      tasks : (unit -> 'a) list;
      merge : 'a list -> Report.t list;
    }
      -> plan
(** An experiment as a list of independent closed tasks plus a merge of
    their results. Each task must be self-contained: it builds its own
    engine, network and deployment from its own fixed seed and shares no
    mutable state with any other task, so the tasks can run on worker
    domains in any order. [merge] always receives the results in
    task-index order — which is why parallel output is bit-identical to
    sequential. *)

val run_plan : ?jobs:int -> plan -> Report.t list
(** Execute a plan's tasks on up to [jobs] domains (default 1: inline,
    in task order) and merge the results. Every job count produces
    identical reports by construction. *)
