(** One ledger of owed records for every byzantized app (§III-C).

    A protocol [P] says only which step records are legal and what a
    committed step or a delivered message does; [Make (P)] is the app.
    Applying an input can owe records: a send ([Send (dest, payload)])
    or a step the unit must commit ([Commit payload]). The owed records
    form a multiset. A communication record to [dest] carrying
    [payload] is legal only while that send is owed, and a commit is
    legal while it is owed or [P] judges it legal; executing an owed
    record pays one copy off. Received records need no verdict from [P]:
    the middleware's receive checks judged them, and the sending unit's
    adapter judged the send. Only the copy of a transmission that
    advances its source's frontier is delivered, as in
    {!Blockplane.Api.on_receive}. *)

type input =
  | Step of string  (** a committed [Commit] payload *)
  | Delivery of { src : int; payload : string }  (** from participant [src] *)

type debt =
  | Send of int * string  (** a communication record: destination, payload *)
  | Commit of string  (** a step record's payload *)

module type PROTOCOL = sig
  type state

  val create : participant:int -> n_participants:int -> state

  val verify : state -> string -> bool
  (** Is this step (a [Commit] payload) a legal next state change? *)

  val apply : state -> owe:(debt -> unit) -> input -> unit
  (** Each [owe debt] makes one more copy of that record legal. *)

  val digest : state -> string
  val describe : state -> string
end

module Make (P : PROTOCOL) : Blockplane.App.S
(** [describe] is [P]'s; [digest] also covers the owed records and the
    delivery frontier. *)

val drive : Blockplane.Api.t -> (owe:(debt -> unit) -> input -> unit) -> unit
(** A driver's plumbing: feed the lead node's executed stream
    ({!Blockplane.Api.on_receive} and {!Blockplane.Api.on_commit}, in log
    order) to a driver-side copy of a protocol through [apply], and submit
    each record that copy owes, a send with [Api.send] and a step with
    [Api.log_commit]. An honest driver thus submits exactly what every
    unit node's ledger owes. *)
