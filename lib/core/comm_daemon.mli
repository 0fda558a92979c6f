(** The communication daemon (§IV-C, Algorithm 2).

    One daemon per (participant, destination) pair, hosted on one of the
    unit's nodes. It watches the node's Local Log copy for communication
    records addressed to its destination, builds transmission records,
    collects fi+1 local signatures (its own plus a broadcast round),
    attaches geo proofs when fg > 0, ships the record to a destination
    node, and advances on cumulative acknowledgements. Unacknowledged
    transmissions are retried against rotating destination nodes, so a
    crashed or byzantine destination node cannot block delivery; a
    destination node that burns a delivery attempt is demoted — skipped
    by the rotation — until every node has been demoted, and the retry
    cadence backs off exponentially (capped, deterministically jittered)
    while no acknowledgement progress is made.

    In cluster-sending mode ({!Cluster_send}) the daemon ships no
    signature bundles at all: it keeps fi+1 sender/receiver probe
    solicitations outstanding against the pairing schedule, delegating
    the actual windowed, single-signature probes to the scheduled sender
    nodes, and retries with fresh pairs (demoting burned ones) until the
    cumulative ack frontier catches up. *)

type t

val create :
  node:Unit_node.t ->
  dest:int ->
  dest_nodes:Bp_sim.Addr.t array ->
  ?geo_proofs:(pos:int -> on_ready:((int * (string * string) list) list -> unit) -> unit) ->
  ?cluster_send:bool ->
  ?start_after:int ->
  unit ->
  t
(** [geo_proofs] asynchronously supplies the §V proof bundles for a log
    position (required iff fg > 0). [cluster_send] (default off) runs
    the probe-solicitation path instead of signature bundles; it
    requires the host node's {!Cluster_send} agent and is forced off
    when [geo_proofs] is supplied (mirror bundles must travel with the
    record). [start_after] skips communication records with comm_seq <=
    it (used by promoted reserves that know the destination's frontier).
    Scans the host node's existing log for backlog, then follows new
    executions via the node hook. *)

val dest : t -> int

val acked : t -> int
(** Destination's cumulative acknowledgement frontier. *)

val set_enabled : t -> bool -> unit
(** Byzantine knob: a disabled daemon silently stops transmitting
    (maliciously delaying messages, §IV-C) — reserves must take over. *)

type counters = {
  sent : int;  (** transmissions / solicitations, incl. retries *)
  acks : int;  (** cumulative-ack messages honoured *)
  retries : int;  (** retry-tick fires *)
  backoff : int;  (** current cadence: ticks between fires (1 = every) *)
  demoted : int;  (** delivery-attempt demotions issued *)
}

val counters : t -> counters

val on_acked : t -> (int -> unit) -> unit
(** Subscribe to acknowledgement progress: called with the destination's
    new cumulative comm_seq frontier whenever it advances (the instant the
    source knows the message was committed remotely — the end point of the
    Fig. 6 measurement). *)
