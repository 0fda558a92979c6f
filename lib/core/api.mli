(** The user-level Blockplane interface (§III-C): [log-commit], [read],
    [send] and [receive], plus the three read strategies of §VI-A.

    One API handle exists per participant, representing the user-space of
    Fig. 1. It submits records through the unit's PBFT as a co-located
    client and observes the Local Log through the unit's lead node. *)

type t

val create :
  network:Bp_sim.Network.t ->
  pbft_cfg:Bp_pbft.Config.t ->
  participant:int ->
  n_participants:int ->
  lead_node:Unit_node.t ->
  geo:Geo.t ->
  vcache:Bp_crypto.Verify_cache.t ->
  xs_staged:(unit -> int) ->
  t
(** [vcache] is the endpoint's own verification cache (never a node's).
    [xs_staged] is the staged-transaction count of [lead_node]'s app copy,
    the second half of its {!Shard.instance}. *)

val participant : t -> int
val n_participants : t -> int

val vcache : t -> Bp_crypto.Verify_cache.t
(** The endpoint's verification cache, the one [create] was given. *)

val log_commit : t -> ?on_rejected:(unit -> unit) -> string -> on_done:(unit -> unit) -> unit
(** Durably append a state-change event. [on_done] fires when the value
    is committed to the Local Log — and, when fg > 0, additionally proved
    by fg other participants (§V). *)

val send : t -> ?on_rejected:(unit -> unit) -> dest:int -> string -> on_done:(unit -> unit) -> unit
(** Write a communication record. [on_done] fires at local commitment
    (plus geo proving when fg > 0); actual wide-area transmission is the
    communication daemon's job and is asynchronous. *)

val receive : t -> src:int -> string option
(** The [receive] instruction (§III-C): the next unread message from
    [src]. The reception buffer lives at this endpoint and holds each
    delivery {!on_receive} reports, exactly once and in per-source order;
    unit nodes buffer no payloads. *)

val on_receive : t -> (src:int -> string -> unit) -> unit
(** Push-style delivery as received records execute: exactly once per
    transmission, in per-source order, even when a duplicate copy of a
    transmission also reaches the Local Log. Each delivery is buffered
    for {!receive} before the handlers run, so a handler may drain it;
    a handler that consumes the delivery it is handed pops it with
    {!receive}, or the buffer keeps it for the endpoint's lifetime. *)

val on_commit : t -> (string -> unit) -> unit
(** Every [Commit] record's payload as the unit's lead node executes it,
    whoever submitted it. Together with {!on_receive} this is the lead
    node's executed stream in log order: a driver that feeds both to its
    own copy of the protocol sees the records in the order every unit
    node's app does. *)

val read : t -> int -> Record.t option
(** Read-1 strategy: serve from the closest (lead) node directly. A
    byzantine lead node could lie — see {!read_quorum}. *)

val read_quorum : t -> int -> on_result:(Record.t option -> unit) -> unit
(** Wait for 2f+1 identical answers from distinct unit nodes: tolerates f
    liars. [on_result None] after a majority of "no such entry". *)

val read_linearizable : t -> int -> on_result:(Record.t option -> unit) -> unit
(** Strongest strategy: commits a read marker through the log, then
    serves the entry — the answer reflects every commit that preceded the
    marker. *)

val next_comm_seq : t -> dest:int -> int
(** The next per-destination sequence number [send] would use. *)

val pipeline_occupancy : t -> float
(** Mean in-flight consensus slots observed at the unit's lead node —
    1.0 for stop-and-wait, up to the configured pipeline depth
    ({!Bp_pbft.Config.t.max_in_flight}) when saturated. *)

val batch_stats : t -> Bp_pbft.Replica.batch_stats
(** Batch-formation telemetry at the unit's lead node (the view-0
    primary): batches cut, ops proposed, window stalls, hold deferrals.
    See {!Bp_pbft.Replica.batch_stats}. *)

val queue_depth : t -> int
(** Requests queued at the unit's lead node awaiting batch formation. *)

val xs_staged : t -> int
(** Cross-shard transactions whose prepare has committed in this unit's
    lead node's log copy but whose decide has not yet: staged op slices
    awaiting the coordinator's decision, as its {!Shard.instance} counts
    them. 0 at quiescence — every prepared txid is eventually decided
    (commit or the timeout downgrade). *)

val submit_record :
  t -> Record.t -> on_done:(unit -> unit) -> on_rejected:(unit -> unit) -> unit
(** Low-level submission of an arbitrary record (used by tests to model
    byzantine proposals; [on_rejected] fires when f+1 replicas pre-reject
    the record via their verification routines). *)
