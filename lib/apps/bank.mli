(** A replicated banking ledger byzantized with Blockplane — the class of
    mission-critical application the paper targets (§VI-D).

    Each participant keeps a ledger of accounts. Local operations
    (open/deposit/withdraw) are log-committed; cross-participant
    transfers use the communication interface: the source commits a
    debit that owes one transfer message ({!Byzantize}'s one send rule),
    and the destination credits the amount only when the (verified)
    message arrives. Verification routines reject overdrafts, unknown
    accounts, sends no debit owes and credits not backed by a received
    message, so a byzantine replica can neither mint money nor
    double-spend. *)

module Ledger : Blockplane.App.S

type op =
  | Open of string * int  (** account, initial balance (trusted bootstrap) *)
  | Deposit of string * int
  | Withdraw of string * int
  | Credit_from_transfer of string * int
      (** destination-side credit; only valid backed by a received
          transfer message *)
  | Transfer_debit of { from_account : string; dest : int; to_account : string; amount : int }
      (** source-side debit that licenses exactly one transfer message *)

val encode_op : op -> string

type t

val attach : Blockplane.Api.t -> t
(** Installs the transfer-receiving loop. *)

val open_account : t -> string -> int -> on_done:(unit -> unit) -> unit
val deposit : t -> string -> int -> on_done:(unit -> unit) -> unit

val withdraw :
  t -> ?on_rejected:(unit -> unit) -> string -> int -> on_done:(unit -> unit) -> unit
(** Rejected (via verification routines) on overdraft. *)

val transfer :
  t ->
  ?on_rejected:(unit -> unit) ->
  from_account:string ->
  dest:int ->
  to_account:string ->
  int ->
  on_done:(unit -> unit) ->
  unit
(** Debit locally, then ship a credit message to participant [dest].
    [on_done] fires at local commitment of the debit. *)

val balance : Blockplane.Unit_node.t -> string -> int option
(** Balance of an account in a node's ledger replica. *)
