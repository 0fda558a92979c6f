(** Static configuration of one PBFT cluster (a Blockplane unit, or a
    geo-distributed baseline deployment). *)

type t = {
  nodes : Bp_sim.Addr.t array;  (** 3f+1 replicas; replica id = index *)
  f : int;
  keystore : Bp_crypto.Signer.t;
  tag : string;  (** transport tag — isolates clusters sharing a network *)
  batch_max : int;  (** max requests folded into one pre-prepare *)
  batch_min_fill : int;
      (** adaptive batch-cut policy: the primary only cuts a batch once
          this many requests are queued (or the hold timer below
          expires). 1 (the default) is the seed's cut-on-any-signal
          policy — a batch forms whenever a pipeline slot frees and any
          request waits, which at deep pipelines degrades into streams
          of tiny batches under open-loop load. *)
  batch_hold : Bp_sim.Time.t;
      (** upper bound on how long a queued request may wait for
          [batch_min_fill] company before the primary cuts the batch
          anyway. [Time.zero] (the default, required when
          [batch_min_fill = 1]) disables the timer: cuts are driven
          purely by fill and slot availability. *)
  request_timeout : Bp_sim.Time.t;  (** view-change trigger *)
  checkpoint_interval : int;  (** stable-checkpoint cadence, in sequences *)
  watermark_window : int;  (** high watermark = low + window *)
  max_in_flight : int;
      (** pipeline depth: how many sequence numbers the primary may have
          simultaneously in the pre-prepare/prepare/commit phases. 1
          reproduces classic stop-and-wait batching; clamped to
          [watermark_window]. *)
  verify_cost : Bp_sim.Time.t;
      (** modeled simulated-time cost of verifying one signature on one
          core. [Time.zero] (the default) disables the model entirely —
          the seed behaviour, where crypto is free in simulated time.
          When positive, each slot books
          [ceil(units / verify_jobs) * verify_cost] on the replica's
          single verification resource (units = batch size + 2f proof
          signatures) and the slot's commit vote waits for it. Used by
          the ablation-pipeline / ablation-verify experiments to study
          how parallel verification interacts with pipelining. *)
  verify_jobs : int;
      (** modeled verification parallelism dividing [verify_cost]
          charges (default 1). Irrelevant while [verify_cost] is zero. *)
  extra_verify_units : string -> int;
      (** additional verification units a request op carries beyond its
          own client signature — e.g. the fi+1-proof bundle embedded in
          a Blockplane [Recv] record, which every replica must check
          before voting. Summed over the batch and added to the
          [verify_cost] charge. Default [fun _ -> 0]: batch entries cost
          one unit each, the seed model. Irrelevant while [verify_cost]
          is zero. *)
  identities : string Bp_sim.Addr.Tbl.t;
      (** memo behind {!identity}, filled by {!make} and on first use;
          not for direct use. *)
}

val default_batch_max : int
(** The [batch_max] {!make} uses when none is given (64 requests). *)

val check_batch_policy :
  batch_max:int ->
  batch_min_fill:int ->
  batch_hold:Bp_sim.Time.t ->
  (unit, string) result
(** The batch-policy rule {!make} enforces: [batch_max] positive,
    [batch_min_fill] in [1, batch_max], [batch_hold] non-negative, and
    a positive [batch_hold] whenever [batch_min_fill > 1] (the tail of a
    workload could otherwise never form a batch). [Error] carries the
    violated condition. Exported so flag parsers judge a batch policy by
    the same rule, on the converted {!Bp_sim.Time.t} hold. *)

val make :
  nodes:Bp_sim.Addr.t array ->
  keystore:Bp_crypto.Signer.t ->
  ?tag:string ->
  ?batch_max:int ->
  ?batch_min_fill:int ->
  ?batch_hold:Bp_sim.Time.t ->
  ?request_timeout:Bp_sim.Time.t ->
  ?checkpoint_interval:int ->
  ?watermark_window:int ->
  ?max_in_flight:int ->
  ?verify_cost:Bp_sim.Time.t ->
  ?verify_jobs:int ->
  ?extra_verify_units:(string -> int) ->
  unit ->
  t
(** [f] is derived as [(n-1)/3]; requires [n = 3f+1 >= 4]. Registers every
    node identity (and the [tag]-derived client identities are registered
    lazily by {!identity}). Defaults: tag ["pbft"], batch 64 requests,
    request timeout 500 ms, checkpoints every 32, window 128, pipeline
    depth 8.

    @raise Invalid_argument if [n] is not of the form [3f+1 >= 4], if any
    of [batch_max], [checkpoint_interval], [watermark_window] or
    [max_in_flight] is non-positive, if [batch_min_fill] falls outside
    [1, batch_max], if [batch_hold] is negative, if
    [batch_min_fill > 1] without a positive [batch_hold] (the tail of a
    workload could then never form a batch), or if
    [checkpoint_interval > watermark_window] (the window could then never
    contain a stable checkpoint and the protocol would wedge once it
    fills). [max_in_flight] larger than [watermark_window] is clamped to
    the window rather than rejected — the window is the hard bound on
    concurrently-open slots. *)

val n : t -> int
val quorum : t -> int
(** 2f+1. *)

val primary_of_view : t -> int -> int
(** Round-robin: view mod n. *)

val identity : t -> Bp_sim.Addr.t -> string
(** Signing identity for an address within this cluster; registers it in
    the keystore on first use (clients as well as replicas). Memoized per
    address: later calls return the same string without touching the
    keystore. *)
