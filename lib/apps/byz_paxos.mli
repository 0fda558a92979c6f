(** Paxos byzantized with Blockplane (§VI-E, Algorithm 3) —
    "Blockplane-Paxos" in the evaluation.

    The benign Paxos protocol ({!Bp_paxos.Replica}, the same core as the
    plain-Paxos baseline) runs unchanged behind the Blockplane API: this
    module is only its network adapter. Every message goes through
    [send]/[receive] after a log-committed event that grants it, and
    Algorithm 3's state changes (replication, le-won, committed,
    le-failed, deposed) are log-committed around the core's calls and
    callbacks (Definition 1). Byzantine behaviour inside a
    participant is masked by its unit, so the *wide-area* pattern stays
    exactly Paxos's: the Replication phase costs one round trip to the
    closest majority plus local-commitment overhead (Fig. 7).

    The protocol app ({!Protocol}) replays the Local Log on every unit
    node and enforces the verification routines: a communication record
    is only valid if a matching protocol event was committed before it
    (so a byzantine node cannot emit paxos messages the protocol never
    produced), and received records must be genuine (middleware checks). *)

module Protocol : Blockplane.App.S

type t

val attach : Blockplane.Api.t -> n_participants:int -> t
(** Bind a driver to a participant's API (installs the receive handler). *)

val is_leader : t -> bool

val elect : t -> on_elected:(bool -> unit) -> unit
(** Algorithm 3's LeaderElection routine: commit the event, send
    paxos-prepare to the other participants, collect promises. The
    callback reports whether a majority of positive votes was reached. *)

val replicate : t -> string -> on_result:(bool -> unit) -> unit
(** Algorithm 3's Replication routine. [on_result true] fires after a
    majority of positive paxos-accept votes and the final
    ["value committed"] log-commit — the latency the paper measures.
    [false] = lost leadership (a higher ballot was observed). *)

val decided : t -> (int * string) list
(** (instance, value) pairs this leader committed, newest first. *)
