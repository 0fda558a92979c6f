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
  identities : string Bp_sim.Addr.Tbl.t;
      (** memo behind {!identity}, filled by {!make} and on first use;
          not for direct use. *)
}

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

val reply_tag : t -> string
(** The transport tag replies to clients travel on ([tag ^ ".reply"]).
    Replicas and clients build it once, at create. *)

val identity : t -> Bp_sim.Addr.t -> string
(** Signing identity for an address within this cluster; registers it in
    the keystore on first use (clients as well as replicas). Memoized per
    address: later calls return the same string without touching the
    keystore. *)
