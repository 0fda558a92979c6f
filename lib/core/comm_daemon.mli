(** The communication daemon (§IV-C, Algorithm 2).

    One daemon per (participant, destination) pair, hosted on one of the
    unit's nodes. It watches the node's Local Log copy for communication
    records addressed to its destination, builds transmission records,
    collects fi+1 local signatures (its own plus a broadcast round),
    attaches geo proofs when fg > 0, ships the record to a destination
    node, and advances on cumulative acknowledgements. On every retry
    tick (3 destination RTTs + 20 ms) with records unacknowledged, it
    re-sends them all to the next destination node in rotation, so a
    crashed or byzantine destination node cannot block delivery; records
    still short of signatures re-ask for them instead. *)

type t

val create :
  node:Unit_node.t ->
  dest:int ->
  dest_nodes:Bp_sim.Addr.t array ->
  ?geo_proofs:(pos:int -> on_ready:((int * (string * string) list) list -> unit) -> unit) ->
  ?start_after:int ->
  unit ->
  t
(** [geo_proofs] asynchronously supplies the §V proof bundles for a log
    position (required iff fg > 0). [start_after] skips communication
    records with comm_seq <= it (used by promoted reserves that know the
    destination's frontier). Scans the host node's existing log for
    backlog, then follows new executions via the node hook. *)

val acked : t -> int
(** Destination's cumulative acknowledgement frontier. *)

val set_enabled : t -> bool -> unit
(** Byzantine knob: a disabled daemon silently stops transmitting
    (maliciously delaying messages, §IV-C) — reserves must take over. *)

type counters = {
  sent : int;  (** transmissions, incl. retries *)
  retries : int;  (** retry ticks that found records unacknowledged *)
  demoted : int;
      (** always 0: the rotation skips no destination node (kept because
          [bench/e2e] reads it) *)
}

val counters : t -> counters

val on_acked : t -> (int -> unit) -> unit
(** Subscribe to acknowledgement progress: called with the destination's
    new cumulative comm_seq frontier whenever it advances (the instant the
    source knows the message was committed remotely — the end point of the
    Fig. 6 measurement). *)
