(** Per-node transport endpoint over the lossy datagram network.

    Adds what the paper assumes from TCP (§III-B): corruption detection
    (CRC frames — corrupted packets are discarded), de-duplication,
    ordering and retransmission. Each pair of endpoints shares one
    reliable, FIFO byte stream; application messages are multiplexed on it
    by [tag], so a node can run PBFT, communication daemons and reserve
    probes over one connection, as separate handlers.

    An [unreliable] mode bypasses retransmission for traffic that tolerates
    loss (heartbeats). *)

type t

val create : Bp_sim.Network.t -> Bp_sim.Addr.t -> t
(** Registers the address on the network.
    @raise Invalid_argument if already registered. *)

val addr : t -> Bp_sim.Addr.t
val network : t -> Bp_sim.Network.t

val set_handler :
  t ->
  tag:string ->
  (src:Bp_sim.Addr.t -> hint:Bp_sim.Network.hint option -> string -> unit) ->
  unit
(** Replaces any previous handler for the tag. The handler gets the
    payload and, when one came with it, the sender's [hint] (see
    {!send}). *)

val clear_handler : t -> tag:string -> unit

val send :
  t ->
  ?reliable:bool ->
  ?hint:Bp_sim.Network.hint ->
  dst:Bp_sim.Addr.t ->
  tag:string ->
  string ->
  unit
(** [reliable] defaults to [true]. Reliable messages are delivered exactly
    once, in per-peer FIFO order, as long as both nodes stay up and the
    link is eventually non-lossy. Unreliable messages may be lost,
    duplicated (never corrupted — frames catch that) or reordered.

    [hint] is the sender's pre-interpreted form of [payload] (e.g. the
    body a PBFT envelope was sealed from). It rides with the packet's own
    hint, so the network drops it from a corrupted copy, and the handler
    receives it only together with this very [payload] string, loopback
    included. The transport trusts it for nothing and never reads it. A
    delivery may come without it: a segment released later from the
    reorder buffer, a retransmission and a corrupted-then-retransmitted
    copy carry the bytes alone, so a handler must treat a missing hint as
    the reference path and may use a present one only as a shortcut to
    what the bytes say. *)

val broadcast :
  t ->
  ?reliable:bool ->
  ?hint:Bp_sim.Network.hint ->
  dsts:Bp_sim.Addr.t array ->
  tag:string ->
  string ->
  unit
(** Semantically identical to calling {!send} for each destination in
    array order (self-destinations loop back), but the message body is
    serialized exactly once per broadcast: destinations share the encoded
    (tag, payload) suffix ({!suffix_frames}), and unreliable broadcasts
    share one frame. Wire bytes and send order are unchanged, so
    simulated timings are identical to the send-loop equivalent. *)

(** {2 Frames}

    What a send puts on the simulated wire. A frame is accounted by its
    exact length; its bytes are built only if something reads them
    ({!Bp_sim.Network.bytes}): the corrupt fault, or a receiver that
    gets no hint. Exposed so tests can check the bytes and lengths. *)

type packet =
  | Unreliable of { tag : string; payload : string }
  | Data of { seq : int; tag : string; payload : string }
  | Ack of { next_expected : int }

val frame : t -> packet -> Bp_sim.Network.frame
(** The frame {!send} (or an ack) puts on the wire for [packet]:
    [Frame.seal] of the encoded packet, built in the endpoint's scratch
    encoder. *)

val suffix_frames :
  t -> tag:string -> string -> seq:int option -> Bp_sim.Network.frame
(** [suffix_frames t ~tag payload] encodes the (tag, payload) suffix once
    (one [Wire.encode]) and returns the frame maker {!broadcast} uses per
    destination: [~seq:(Some s)] gives the bytes of [frame] for
    [Data { seq = s; tag; payload }], [~seq:None] those for
    [Unreliable { tag; payload }]. *)

val stats : t -> int * int
(** (retransmissions, discarded corrupt/malformed frames). *)
