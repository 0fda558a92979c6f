(** One Blockplane node: a PBFT replica plus the Blockplane-space state it
    maintains — its copy of the Local Log, a replica of the user protocol
    [P], the per-source received frontier, and the auxiliary services
    other components call over the network (transmission-record signing,
    receive handling, reserve answers, mirror duties). *)

type t

val create :
  network:Bp_sim.Network.t ->
  pbft_cfg:Bp_pbft.Config.t ->
  participant:int ->
  n_participants:int ->
  node_idx:int ->
  fg:int ->
  vcache:Bp_crypto.Verify_cache.t ->
  app:App.instance ->
  unit ->
  t
(** Builds the transport, PBFT replica and client for node [node_idx] of
    the participant's unit, and installs the verification routine (the
    built-in receive checks of §IV-C plus the app's own [verify]).
    [vcache] is the node's own verification cache, shared by its
    replica, client and receive checks. *)

val addr : t -> Bp_sim.Addr.t
val peers : t -> Bp_sim.Addr.t array
(** All node addresses of this unit (including this node). *)

val fi : t -> int

val vcache : t -> Bp_crypto.Verify_cache.t
(** The node's verification/digest memo (see {!Bp_crypto.Verify_cache}).
    Strictly per-node: sharing it across nodes would let one node's
    verdicts stand in for another's. *)

val transport : t -> Bp_net.Transport.t

val send_aux : t -> dst:Bp_sim.Addr.t -> Proto.t -> unit
(** Send a communication-layer message from this node to [dst], on the
    aux tag of [dst]'s unit. *)

val replica : t -> Bp_pbft.Replica.t

val pipeline_occupancy : t -> float
(** Mean in-flight consensus slots at this node's replica — see
    {!Bp_pbft.Replica.pipeline_occupancy}. *)

val participant : t -> int
val identity : t -> string
val log : t -> Bp_storage.Log_store.t
val app : t -> App.instance
val app_digest : t -> string

val last_received : t -> src:int -> int
(** Highest in-order transmission comm_seq committed from [src]; -1 if
    none. *)

val add_executed_hook : t -> (pos:int -> Record.t -> unit) -> unit
(** Called after a record is appended to this node's Local Log copy
    (daemon notifications, API receive callbacks, geo proving). *)

val add_aux_listener : t -> (src:Bp_sim.Addr.t -> Proto.t -> unit) -> unit
(** The one way a component co-located on this node (comm daemon,
    reserve, mirror agent, geo coordinator) receives auxiliary traffic.
    Every listener sees every message the node does not answer itself —
    everything but [Sign_request], [Transmit], [Reserve_query] and
    [Read_query] — with the sending address, and ignores what is not its
    own (by destination, source unit or message kind). [src] and the
    message's fields come off the wire unchecked: a listener screens
    them before it trusts or indexes anything. *)

val follow_comms : t -> (pos:int -> Record.communication -> unit) -> unit
(** [follow_comms t f] calls [f] on every communication record already
    in this node's Local Log copy, in log order, then on each one as it
    executes: how a component created mid-run (a promoted reserve's
    daemon) picks up the backlog and the live stream with no gap. *)

val mirror_digest : t -> owner:int -> pos:int -> string option
(** Digest of a mirrored entry committed in this node's log, if any. *)

val sign_mirror : t -> owner:int -> pos:int -> digest:string -> string option
(** Attest a mirrored entry: a signature over {!Proto.mirror_statement},
    or [None] if this node has not committed that mirror entry. *)

val attests : t -> participant:int -> string -> bool
(** [attests t ~participant identity]: [identity] names one of unit
    [participant]'s own nodes. Every fi+1 signature bundle — the
    transmission proofs and geo mirror bundles this node verifies, and
    the ones its comm daemon and mirror agent collect — counts only
    signatures that pass this screen (§IV-C, §V). Pure string work. *)

val transmission_statement : t -> Record.transmission -> string
(** {!Record.transmission_statement}, hashing the payload through this
    node's digest memo: what the source unit's nodes sign. *)

val sign_transmission : t -> Record.transmission -> (string * string) option
(** Attest a transmission record against this node's own log: [(identity,
    signature)] if the log's entry at [log_pos] is the matching
    communication record (or unconditionally, if the byzantine knob is
    set). *)

val submit_record : t -> Record.t -> on_result:(string -> unit) -> unit
(** Local-commit an arbitrary record through the unit's PBFT (the node
    acts as the client; the result is the log position as a string). *)

val set_byzantine_sign_anything : t -> bool -> unit
(** Byzantine knob: this node will attest any transmission record without
    checking its log (a malicious signer). *)

val set_byzantine_drop_comm : t -> bool -> unit
(** Byzantine knob: this node silently ignores communication-layer
    traffic — sign requests and transmits. Its PBFT replica stays
    honest (withholding only). *)

val wal_image : t -> string
(** The node's durable log: its Local Log framed by
    {!Bp_storage.Wal.image}, one checksummed frame per entry in log
    order — what would be on this node's disk. Built on each call. *)

val replay :
  image:string -> app:App.instance -> int * (unit, [ `Corrupt_tail ]) result
(** Crash recovery (§III-C: "the participant uses log-commit records to
    persist its state ... to enable recovery in the case of failure"):
    rebuild a protocol replica by replaying a (possibly torn) WAL image.
    Returns the number of records recovered and whether trailing bytes
    had to be discarded. The [app] instance is mutated to the recovered
    state; records the middleware hides from the app (mirror entries,
    read markers) are skipped exactly as during live execution. A
    deployment's nodes run the app wrapped by {!Shard.instance}, so
    recovering one of them needs a fresh wrapped copy too: the wrapper,
    not this function, gives the cross-shard commit steps their
    meaning. *)
