(** Paxos byzantized with Blockplane (§VI-E, Algorithm 3), called
    "Blockplane-Paxos" in the evaluation.

    The benign Paxos core ({!Bp_paxos.Replica}, the same one as the
    plain-Paxos baseline) runs unchanged. Every unit node keeps a shadow
    replica of its participant's node and feeds it the unit's committed
    step records and paxos receives in log order. So each step is judged
    by re-executing Paxos, and a communication record is legal only if
    the shadow's own output owes it ({!Byzantize}): a node can send no
    Paxos message that the protocol did not produce. Each send leaves
    after a committed send step, and each outcome (le-won, le-failed,
    committed, deposed) is log-committed. The wide-area pattern stays
    Paxos's: Replication costs one round trip to the closest majority
    plus local commits (Fig. 7). *)

module Protocol : Blockplane.App.S

type t

val attach : Blockplane.Api.t -> n_participants:int -> t
(** A driver for the API's participant. It replays the lead node's
    executed stream into its own copy of the node, so it sends what the
    shadows owe. *)

val is_leader : t -> bool

val elect : t -> on_elected:(bool -> unit) -> unit
(** Algorithm 3's LeaderElection: commit an election step, then report
    whether a majority promised. *)

val replicate : t -> string -> on_result:(bool -> unit) -> unit
(** Algorithm 3's Replication routine. [on_result true] fires after a
    majority accepted and ["committed"] was log-committed, which is the
    latency the paper measures. [false]: this participant does not lead,
    or a higher ballot deposed it. *)

val decided : t -> (int * string) list
(** (instance, value) pairs this leader committed, newest first. *)
