(** Auxiliary Blockplane-space messages: transmission-record signing,
    delivery and acknowledgement, reserve probes (§IV-C), and the
    geo-correlated mirroring protocol (§V).

    Tag layout for participant [u] (on top of the PBFT tags ["u<u>"] and
    ["u<u>.reply"]):
    - ["u<u>.aux"] — everything below, dispatched by constructor. *)

type t =
  | Sign_request of { transmission : Record.transmission }
      (** daemon -> local node: attest this transmission record (proofs
          field empty) *)
  | Sign_response of {
      dest : int;
      comm_seq : int;
      identity : string;
      signature : string;
    }
  | Transmit of { transmission : Record.transmission }
      (** source daemon -> destination node *)
  | Ack of { from_participant : int; comm_seq : int }
      (** destination node -> source daemon: committed up to [comm_seq]
          (cumulative) *)
  | Reserve_query of { src : int }
      (** reserve node -> destination nodes: highest in-order transmission
          comm_seq you have committed from [src]? *)
  | Reserve_reply of { src : int; last : int }
  | Mirror_request of { owner : int; pos : int; value : string }
      (** geo: primary -> mirror participant: durably store entry [pos] *)
  | Mirror_proof of {
      owner : int;
      pos : int;
      participant : int;
      sigs : (string * string) list;  (** fi+1 local attestations *)
    }
  | Mirror_sign_request of { owner : int; pos : int; digest : string }
      (** mirror agent -> its local nodes *)
  | Mirror_sign_response of {
      owner : int;
      pos : int;
      identity : string;
      signature : string;
    }
  | Read_query of { pos : int }
      (** read strategies (§VI-A): fetch Local Log entry [pos] *)
  | Read_reply of { pos : int; payload : string option }

val encode : t -> string
val decode : string -> (t, string) result

val unit_tag : int -> string
(** PBFT transport tag of participant [u]'s unit (["u<u>"]). *)

val identity_prefix : int -> string
(** Prefix of every signing identity in participant [u]'s unit
    ([unit_tag u ^ "/"]); see {!Bp_pbft.Config.identity}. *)

val aux_tag : int -> string
(** Transport tag for participant [u]'s auxiliary traffic. *)

val mirror_key : owner:int -> pos:int -> int
(** One int naming log entry [pos] of unit [owner], the key of
    {!Mirror_tbl}: distinct for every [0 <= owner < 2^16] and
    [0 <= pos < 2^46], and [-1], which names no entry, outside them. *)

module Mirror_tbl : Hashtbl.S with type key = int

val mirror_statement : owner:int -> pos:int -> digest:string -> string
(** The byte string mirror nodes sign to attest a mirrored entry. *)
