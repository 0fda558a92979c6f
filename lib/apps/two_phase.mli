(** Byzantized two-phase commit — the transaction-processing use case the
    paper motivates in §III-C ("a transaction processing application would
    have verification routines to check whether a transaction can
    commit").

    A coordinator participant drives atomic transactions across cohort
    participants, each holding a partition of a key-value store. The
    protocol is plain, benign 2PC built on {!Byzantize}: every step and
    send is a record that committed state owes, so a byzantine node can
    send or commit nothing the protocol did not produce:

    - a committed [Begin] carries the transaction's (cohort, op) pairs,
      each cohort another participant named once, and owes one
      [Prepare] to each cohort;
    - a delivered [Prepare] owes the cohort's vote step, YES exactly when
      its op applies to the cohort's current partition, and that step
      owes the exact [Vote] back to the coordinator;
    - a [Vote] counts for the cohort that is the transmission's source
      (the message names no voter); once every cohort named in [Begin]
      has voted, the coordinator owes one decide step, COMMIT exactly
      when every vote was YES, and it owes the exact [Decision] to each
      cohort;
    - a delivered [Decision] from the cohort's coordinator owes a finish
      step, which applies the op only on COMMIT.

    All messages travel through [send]/[receive]; every state change is
    log-committed first (Definition 1). *)

module Protocol : Blockplane.App.S

type t

val attach : Blockplane.Api.t -> t
(** The driver for the API's participant, in both roles: it replays the
    lead node's executed stream into its own copy of the protocol and
    submits exactly what that copy owes ({!Byzantize.drive}). *)

type outcome = Committed | Aborted

val submit :
  t ->
  ops:(int * Bp_storage.Kv.op) list ->
  on_decided:(outcome -> unit) ->
  unit
(** Run one transaction, coordinated by this participant: one KV
    operation per cohort participant. Raises [Invalid_argument] if [ops]
    is empty or names this participant, one out of range, or one
    twice. [on_decided] fires when the
    decision executes at the coordinator's lead node; COMMIT requires
    every cohort to have voted YES. *)

val partition_get : Blockplane.Unit_node.t -> string -> string option
(** Read a key from a node's replica of its participant's partition. *)

val decided_count : t -> int * int
(** (committed, aborted) transactions this participant coordinated. *)
