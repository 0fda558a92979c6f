(** A PBFT replica (Castro & Liskov, OSDI'99) with the Blockplane
    modifications of §IV-B.

    Normal case: the view's primary batches client requests and drives
    pre-prepare / prepare / commit; a request executes once the replica is
    committed-local and all earlier sequences have executed. Replies go
    directly to the client, which waits for f+1 matching ones.

    Blockplane modifications:
    - every request carries a record-type annotation ({!Msg.request.kind});
    - after becoming *prepared* and before broadcasting its [Commit] vote,
      a replica runs the registered verification routine on every request
      of the batch and withholds the vote if any fails — so fewer than
      2f+1 honest votes assemble for an invalid state transition.

    Also implemented: stable checkpoints with watermarks and garbage
    collection, and view changes. A view-change message carries a
    prepared certificate for each possibly-committed batch: the batch and
    the 2f signed Prepare envelopes that prepared it. A New_view carries
    only the 2f+1 view-change envelopes, and the new primary and every
    backup derive the re-proposed batches from them with one function,
    {!new_view_batches}.

    The primary runs a windowed pipeline: up to
    {!Config.t.max_in_flight} sequence numbers may be in the
    pre-prepare/prepare/commit phases at once (never beyond the
    watermark window). Slots may commit out of order; execution — and
    therefore the hash chain and every checkpoint digest — stays
    strictly in sequence order at any depth. Depth 1 is the classic
    stop-and-wait primary.

    A replica is in one phase at a time: [Normal], changing to a target
    view (with the timer that moves it on to the next view if the
    change stalls; leaving the phase cancels it), or [Stopped] after
    {!stop}, which is final. Only the primary in [Normal] cuts batches. *)

type t

exception Invariant_violation of string
(** Raised when local protocol state contradicts an invariant the replica
    itself is responsible for (e.g. a prepared slot with no digest). This
    is never raised on byzantine *input* — malformed or lying messages are
    dropped — only on impossible local states, carrying the replica id and
    slot coordinates. *)

val create :
  cache:Bp_crypto.Verify_cache.t ->
  Bp_net.Transport.t ->
  Config.t ->
  id:int ->
  execute:(seq:int -> Msg.request -> string) ->
  unit ->
  t
(** [execute] is the deterministic application upcall; it runs exactly
    once per request, in global sequence order, on every correct replica;
    its return value is the client-visible result.

    [cache] is this replica's view of the keystore and its memo of
    signature verdicts and op digests. How much it keeps is purely a
    performance knob: protocol outputs are bit-identical whatever its
    capacity (see {!Msg}). *)

val new_view_batches :
  cache:Bp_crypto.Verify_cache.t ->
  Config.t ->
  view:int ->
  string list ->
  (int * string * Msg.request list) list option
(** [new_view_batches ~cache cfg ~view envelopes] is what a New_view for
    [view] with the certificate [envelopes] re-proposes: (seq, digest,
    batch) for every sequence from the stable checkpoint that f+1 of the
    view changes reach up to the highest proven one, the batch of the
    highest-view valid prepared proof at each (on a tie, the lowest
    reporting replica's), and the empty batch where none is. Each envelope is verified once, and only the first
    View_change for [view] from each replica counts; [None] when fewer
    than 2f+1 replicas remain. A proof is valid when its batch hashes to
    its digest and 2f distinct replicas' envelopes verify as Prepares for
    its view, sequence and digest. A pure function of its arguments, as
    verdicts do not depend on what [cache] keeps. *)

val view : t -> int

val is_normal : t -> bool
(** [false] while a view change is in progress and after {!stop}. *)

val last_executed : t -> int
val low_watermark : t -> int
val exec_chain : t -> string
(** Hash chain over executed batches — two replicas executed the same
    prefix iff their chains agree. Also the checkpoint state digest. *)

val pipeline_occupancy : t -> float
(** Mean pipeline depth sampled at each slot entry — 1.0 exactly for a
    stop-and-wait run, approaching [max_in_flight] when the pipeline is
    kept full. 0.0 if no slot ever entered. *)

val open_slot_count : t -> int
(** Slots currently tracked between the watermarks, including the
    out-of-order commit buffer; bounded by the watermark window plus
    checkpoint lag. *)

val archive_size : t -> int
(** Executed batches retained for state transfer (bounded GC horizon). *)

val queue_depth : t -> int
(** Requests queued at this replica awaiting batch formation (only ever
    non-zero on a primary). *)

type batch_stats = {
  batches_cut : int;  (** pre-prepares this primary proposed *)
  ops_proposed : int;
      (** total requests across those batches; [ops_proposed /
          batches_cut] is the mean batch fill — the quantity the
          adaptive-cut policy knobs exist to defend under load *)
  window_stalls : int;
      (** cut attempts that found a free pipeline slot and waiting
          requests but were blocked by the watermark window (progress
          gated on the next stable checkpoint) *)
  hold_deferrals : int;
      (** cuts deferred because the queue was below
          [Config.batch_min_fill] (the hold timer bounds the wait) *)
}

val batch_stats : t -> batch_stats
(** Batch-formation telemetry since creation; all zero on backups. *)

val set_verifier : t -> (Msg.request -> bool) -> unit
(** Install the Blockplane verification routine (default: accept all).
    It judges a request by its [kind] and [op], and may cache the op's
    decoding in [decoded] (cleared once the request executes). *)

val set_preverifier : t -> (Msg.request list -> unit) -> unit
(** Install the verification prefetch hook (default: none). When a
    pre-prepare is accepted for a slot that is {e not} next to execute,
    the replica calls the hook with the batch at once; the hook may run
    the signature checks the verification routines will need (e.g. a
    [Bp_crypto.Verify_cache.verify_batch] of the transmission-record
    signature sets), so they hit the per-node cache when the slot is
    judged. This only
    moves cache work — verdicts are identical whether or not a hook is
    installed. *)

val set_on_executed : t -> (seq:int -> Msg.request list -> unit) -> unit
(** Batch-level notification after execution (Blockplane's Local Log
    append hook). *)

val stop : t -> unit
(** Detach from the transport, cancel timers and enter the final
    [Stopped] phase (simulated host death; distinct from a network-level
    crash, which keeps state). *)

val suppress_commit_votes : t -> bool -> unit
(** Byzantine test knob: a faulty replica that stays silent in the commit
    phase. *)
