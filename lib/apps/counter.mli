(** The distributed counting protocol of §III-C (Algorithm 1), byzantized
    with Blockplane.

    Each participant keeps a counter, initially 0. A user triggers a
    request at participant A addressed to participant B; A log-commits the
    request and sends a message; when B receives it, B log-commits an
    increment event and bumps its counter.

    The paper's three verification routines, on {!Byzantize}'s one send
    rule:
    - a [request] commit is accepted from the trusted user source, and
      owes one message to its destination;
    - a communication record is legal only while a committed request owes
      it;
    - an [increment-counter] commit is only valid if an unconsumed
      received message exists, so a byzantine node cannot inflate the
      counter (the attack discussed in §III-C). *)

module Protocol : Blockplane.App.S

type t
(** The user-space driver bound to one participant's API. *)

val attach : Blockplane.Api.t -> t
(** Installs the StartServer loop: each received message is log-committed
    as an increment. *)

val user_request : t -> dest:int -> on_done:(unit -> unit) -> unit
(** Algorithm 1's UserRequest event: log-commit the request, then send. *)

val value : Blockplane.Unit_node.t -> int
(** Counter value in a node's replica of the protocol state. *)
