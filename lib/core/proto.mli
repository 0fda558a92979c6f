(** Auxiliary Blockplane-space messages: transmission-record signing,
    delivery and acknowledgement, reserve probes (§IV-C), and the
    geo-correlated mirroring protocol (§V).

    Tag layout for participant [u] (on top of the PBFT tags ["u<u>"] and
    ["u<u>.reply"]):
    - ["u<u>.aux"] — everything below, dispatched by constructor. *)

type probe = {
  p_src : int;
  p_dest : int;
  p_base : int;
      (** chain anchor: the sender's view of the destination's committed
          frontier; the receiver recomputes the chain from its own
          committed digest at this sequence number *)
  p_payload_from : int;
      (** entries with [comm_seq > p_payload_from] carry the record
          payload; entries at or below it carry the record's statement
          digest instead — enough to recompute the chain head, so the
          parallel probes of a coverage wave stay digest-sized and only
          one probe ships the window's bytes *)
  p_window : (int * int * string) list;
      (** (comm_seq, log_pos, payload-or-statement-digest), contiguous
          over (p_base, head] *)
  p_signer : string;
  p_signature : string;  (** over {!Record.chain_statement} at the head *)
  p_reply_to : Bp_sim.Addr.t;
      (** where destination nodes send cumulative acks (the daemon host) *)
}
(** A cluster-sending probe (expected-constant byzantine cluster-sending,
    Hellings & Sadoghi): a single source-node signature over the
    statement-chain head vouches for every record in (and before) the
    window, replacing the fi+1-signature bundle of {!Transmit}. *)

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
  | Probe of probe
      (** WAN: scheduled sender node -> the scheduled destination node *)
  | Disperse of probe
      (** intra-unit dispersal: the destination node that accepted a probe
          re-broadcasts it so every unit peer accumulates coverage *)
  | Probe_request of {
      pr_dest : int;
      pr_base : int;
      pr_head : int;
      pr_payload_from : int;
      pr_receiver : int;
      pr_reply_to : Bp_sim.Addr.t;
    }
      (** intra-unit delegation: daemon -> scheduled sender node. The
          sender builds the window from its {e own} log copy (the daemon
          is not trusted with record contents) and probes destination
          node [pr_receiver]; payloads ship only above
          [pr_payload_from]. *)

val encode : t -> string
val decode : string -> (t, string) result

val unit_tag : int -> string
(** PBFT transport tag of participant [u]'s unit (["u<u>"]). *)

val identity_prefix : int -> string
(** Prefix of every signing identity in participant [u]'s unit
    ([unit_tag u ^ "/"]); see {!Bp_pbft.Config.identity}. *)

val aux_tag : int -> string
(** Transport tag for participant [u]'s auxiliary traffic. *)

val mirror_statement : owner:int -> pos:int -> digest:string -> string
(** The byte string mirror nodes sign to attest a mirrored entry. *)
