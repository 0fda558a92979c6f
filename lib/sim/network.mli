(** The simulated datagram network.

    Delivery cost of a message of [b] bytes from node [s] to node [d]:

    - the sender's NIC serializes at the topology bandwidth, so the packet
      departs at [max(now, nic_busy_until(s)) + b/bandwidth] — this shared
      egress queue is what produces the throughput plateau of Fig. 4(b);
    - propagation adds [one_way(s.dc, d.dc)] (or the intra-DC latency);
    - optional fault injection may drop, duplicate, corrupt (flip a byte)
      or jitter the packet.

    Delivery is *not* reliable or ordered — {!Bp_net.Channel} builds that.
    Crashed nodes neither send nor receive. *)

type t

type faults = {
  drop : float;  (** probability a packet vanishes *)
  duplicate : float;  (** probability a packet is delivered twice *)
  corrupt : float;  (** probability one byte is flipped in flight *)
  jitter_ms : float;  (** extra delay, uniform in [0, jitter_ms] *)
}

val no_faults : faults

val create : Engine.t -> Topology.t -> ?faults:faults -> unit -> t

val engine : t -> Engine.t
val topology : t -> Topology.t
val set_faults : t -> faults -> unit

type frame
(** One datagram on the simulated wire: its exact length, and its bytes
    on demand. The network accounts a frame by its length alone (NIC
    serialization, [bytes_sent], the traffic matrix). Its bytes are built
    at most once, and only when something reads them: the corrupt fault,
    which flips one of them at send time, or a receiver that calls
    {!bytes}. *)

val frame : t -> len:int -> (unit -> string) -> frame
(** [frame t ~len build] is a frame of exactly [len] bytes that
    [build ()] produces. [build] runs at most once, on the first
    {!bytes}; each run counts in [materialized] of [t]. It may run long
    after the send, so it must not depend on state the sender mutates in
    between. *)

val frame_of_string : string -> frame
(** A frame whose bytes already exist; reading them builds nothing. *)

val length : frame -> int

val bytes : frame -> string
(** The frame's bytes, built on the first call.
    @raise Invalid_argument if the builder's output is not {!length}
    bytes long. *)

type hint = ..
(** Sender-supplied delivery hints. A hint carries a pre-interpreted form
    of the frame it is sent with (e.g. {!Bp_net.Transport} attaches the
    packet the frame encodes), so a receiver handed a hint can act on it
    without reading the bytes. A hint belongs to the one {!send} that
    carries it, and fault injection drops it whenever it rewrites the
    bytes: a corrupted copy always arrives without a hint. Hints never
    change the accounted length. Extensible so upper layers can define
    hint shapes the simulator knows nothing about. *)

val register :
  t -> Addr.t -> (src:Addr.t -> hint:hint option -> frame -> unit) -> unit
(** Attach a node's receive handler. @raise Invalid_argument if already
    registered, or if the address has a negative datacenter or index. *)

val send : t -> src:Addr.t -> dst:Addr.t -> ?hint:hint -> frame -> unit
(** Fire-and-forget datagram. Sends from/to crashed or unregistered nodes
    are silently dropped (the sender cannot tell — like UDP). A
    duplicated delivery hands the receiver the same frame again. *)

val crash : t -> Addr.t -> unit
(** The node stops sending and receiving until {!recover}. In-flight
    packets to it are lost. *)

val recover : t -> Addr.t -> unit
val is_crashed : t -> Addr.t -> bool

val crash_dc : t -> int -> unit
(** Geo-correlated outage: crash every registered node in a datacenter. *)

val recover_dc : t -> int -> unit

val set_link : t -> int -> int -> [ `Up | `Down ] -> unit
(** Administratively partition a pair of datacenters (both directions).
    @raise Invalid_argument if either is not a datacenter of the
    topology. *)

(** Counters since creation (delivered duplicates and corrupted-but-
    delivered packets count as delivered). [sent] and [bytes_sent] cover
    only packets that actually departed the source NIC; sends refused at
    the source (unregistered or crashed sender, administratively downed
    link) appear in [dropped] and, additionally, in [dropped_at_source].
    Packets lost to the in-flight drop fault departed, so they count as
    sent and dropped but not dropped-at-source. [bytes_sent] sums frame
    lengths; [materialized] counts the frames whose bytes a builder
    produced (see {!frame}), which a fault-free run of the transport
    keeps at 0. *)
type counters = {
  sent : int;
  delivered : int;
  dropped : int;
  dropped_at_source : int;
  corrupted : int;
  duplicated : int;
  bytes_sent : int;
  materialized : int;
}

val counters : t -> counters

val traffic_matrix : t -> int array array
(** [traffic_matrix t].(i).(j) = bytes from datacenter [i] that departed
    towards datacenter [j] (including packets later lost in flight, but
    not sends refused at the source). Quantifies locality: diagonal =
    intra-datacenter traffic. *)

val message_matrix : t -> int array array
(** Same accounting as {!traffic_matrix} but in messages rather than
    bytes. *)
