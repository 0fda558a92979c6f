open Blockplane
open Bp_codec
module Kv = Bp_storage.Kv

(* ---------- wire messages between participants ---------- *)

type wmsg =
  | Prepare of { tid : string; op : Kv.op }
  | Vote of { tid : string; yes : bool }
  | Decision of { tid : string; commit : bool }

let encode_wmsg m =
  Wire.encode (fun e ->
      match m with
      | Prepare { tid; op } ->
          Wire.u8 e 0;
          Wire.string e tid;
          Wire.string e (Kv.encode_op op)
      | Vote { tid; yes } ->
          Wire.u8 e 1;
          Wire.string e tid;
          Wire.bool e yes
      | Decision { tid; commit } ->
          Wire.u8 e 2;
          Wire.string e tid;
          Wire.bool e commit)

let read_op d =
  match Kv.decode_op (Wire.read_string d) with
  | Ok op -> op
  | Error m -> raise (Wire.Malformed m)

let decode_wmsg s =
  Wire.decode s (fun d ->
      match Wire.read_u8 d with
      | 0 ->
          let tid = Wire.read_string d in
          Prepare { tid; op = read_op d }
      | 1 ->
          let tid = Wire.read_string d in
          Vote { tid; yes = Wire.read_bool d }
      | 2 ->
          let tid = Wire.read_string d in
          Decision { tid; commit = Wire.read_bool d }
      | n -> raise (Wire.Malformed (Printf.sprintf "2pc wmsg %d" n)))

(* ---------- committed protocol events ---------- *)

type event =
  | Begin of { tid : string; ops : (int * Kv.op) list }
  | Decide of { tid : string; commit : bool }
  | Vote_cast of { tid : string; yes : bool }
  | Finish of { tid : string }

let encode_event ev =
  Wire.encode (fun e ->
      match ev with
      | Begin { tid; ops } ->
          Wire.u8 e 0;
          Wire.string e tid;
          Wire.list e
            (fun (cohort, op) ->
              Wire.varint e cohort;
              Wire.string e (Kv.encode_op op))
            ops
      | Decide { tid; commit } ->
          Wire.u8 e 1;
          Wire.string e tid;
          Wire.bool e commit
      | Vote_cast { tid; yes } ->
          Wire.u8 e 2;
          Wire.string e tid;
          Wire.bool e yes
      | Finish { tid } ->
          Wire.u8 e 3;
          Wire.string e tid)

let decode_event s =
  Wire.decode s (fun d ->
      match Wire.read_u8 d with
      | 0 ->
          let tid = Wire.read_string d in
          let ops =
            Wire.read_list d (fun d ->
                let cohort = Wire.read_varint d in
                (cohort, read_op d))
          in
          Begin { tid; ops }
      | 1 ->
          let tid = Wire.read_string d in
          Decide { tid; commit = Wire.read_bool d }
      | 2 ->
          let tid = Wire.read_string d in
          Vote_cast { tid; yes = Wire.read_bool d }
      | 3 -> Finish { tid = Wire.read_string d }
      | n -> raise (Wire.Malformed (Printf.sprintf "2pc event %d" n)))

(* ---------- the replicated protocol ---------- *)

(* One participant's 2PC, as every node of its unit replays it from the
   Local Log (and the driver from the lead node's executed stream). *)
type txn_coord = {
  ops : (int * Kv.op) list;
  mutable votes : (int * bool) list; (* (voter, yes), each a delivered Vote *)
}

type txn_cohort = {
  coordinator : int;
  op : Kv.op;
  mutable decision : bool option; (* the delivered Decision *)
}

type state = {
  participant : int;
  n_participants : int;
  kv : Kv.t;
  coord : (string, txn_coord) Hashtbl.t;
  cohort : (string, txn_cohort) Hashtbl.t;
}

let create ~participant ~n_participants =
  {
    participant;
    n_participants;
    kv = Kv.create ();
    coord = Hashtbl.create 16;
    cohort = Hashtbl.create 16;
  }

(* Each cohort is another participant, named once: a Begin owes a send
   to each, and a repeated cohort could never collect all its votes. *)
let well_formed ~participant ~n_participants ops =
  let rec go seen = function
    | [] -> not (List.is_empty seen)
    | (c, _) :: rest ->
        c >= 0 && c < n_participants && c <> participant
        && (not (List.mem c seen))
        && go (c :: seen) rest
  in
  go [] ops

let owe_step owe ev = owe (Byzantize.Commit (encode_event ev))
let owe_send owe dest m = owe (Byzantize.Send (dest, encode_wmsg m))

let apply st ~owe = function
  | Byzantize.Step payload -> (
      match decode_event payload with
      | Ok (Begin { tid; ops }) ->
          Hashtbl.replace st.coord tid { ops; votes = [] };
          List.iter (fun (c, op) -> owe_send owe c (Prepare { tid; op })) ops
      | Ok (Decide { tid; commit }) ->
          Option.iter
            (fun t ->
              List.iter (fun (c, _) -> owe_send owe c (Decision { tid; commit })) t.ops)
            (Hashtbl.find_opt st.coord tid)
      | Ok (Vote_cast { tid; yes }) ->
          Option.iter
            (fun t -> owe_send owe t.coordinator (Vote { tid; yes }))
            (Hashtbl.find_opt st.cohort tid)
      | Ok (Finish { tid }) -> (
          match Hashtbl.find_opt st.cohort tid with
          | Some { op; decision = Some true; _ } -> ignore (Kv.apply st.kv op)
          | Some _ | None -> ())
      | Error _ -> ())
  | Byzantize.Delivery { src; payload } -> (
      match decode_wmsg payload with
      | Ok (Prepare { tid; op }) ->
          if not (Hashtbl.mem st.cohort tid) then begin
            Hashtbl.replace st.cohort tid { coordinator = src; op; decision = None };
            (* The vote is honest about whether the op applies. *)
            owe_step owe (Vote_cast { tid; yes = Kv.can_apply st.kv op })
          end
      | Ok (Vote { tid; yes }) -> (
          (* The voter is the transmission's source, never a claim. *)
          match Hashtbl.find_opt st.coord tid with
          | Some t when List.mem_assoc src t.ops && not (List.mem_assoc src t.votes) ->
              t.votes <- (src, yes) :: t.votes;
              (* COMMIT is owed only once every cohort's YES vote was
                 delivered — the safety core of 2PC. *)
              if List.length t.votes = List.length t.ops then
                owe_step owe (Decide { tid; commit = List.for_all snd t.votes })
          | Some _ | None -> ())
      | Ok (Decision { tid; commit }) -> (
          match Hashtbl.find_opt st.cohort tid with
          | Some t when t.coordinator = src && Option.is_none t.decision ->
              t.decision <- Some commit;
              owe_step owe (Finish { tid })
          | Some _ | None -> ())
      | Error _ -> ())

module Protocol = Byzantize.Make (struct
  type nonrec state = state

  let create = create

  (* Any fresh, well-formed transaction may begin; every other step is
     legal only while delivered messages or committed steps owe it. *)
  let verify st payload =
    match decode_event payload with
    | Ok (Begin { tid; ops }) ->
        well_formed ~participant:st.participant ~n_participants:st.n_participants ops
        && not (Hashtbl.mem st.coord tid)
    | Ok (Decide _ | Vote_cast _ | Finish _) | Error _ -> false

  let apply = apply

  let digest st =
    Bp_crypto.Sha256.digest
      (String.concat "|"
         [
           Kv.digest st.kv;
           string_of_int (Hashtbl.length st.coord);
           string_of_int (Hashtbl.length st.cohort);
         ])

  let describe st =
    String.concat ";"
      (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) (Kv.bindings st.kv))
end)

(* ---------- the driver ---------- *)

type outcome = Committed | Aborted

(* The driver replays the lead node's executed stream into its own copy
   of the protocol and submits exactly what that copy owes. *)
type t = {
  api : Api.t;
  mutable next_tid : int;
  waiting : (string, outcome -> unit) Hashtbl.t; (* this coordinator's open txns *)
  mutable committed : int;
  mutable aborted : int;
}

let decided_count t = (t.committed, t.aborted)

let decided t = function
  | Byzantize.Step payload -> (
      match decode_event payload with
      | Ok (Decide { tid; commit }) ->
          Option.iter
            (fun k ->
              Hashtbl.remove t.waiting tid;
              if commit then t.committed <- t.committed + 1
              else t.aborted <- t.aborted + 1;
              k (if commit then Committed else Aborted))
            (Hashtbl.find_opt t.waiting tid)
      | Ok (Begin _ | Vote_cast _ | Finish _) | Error _ -> ())
  | Byzantize.Delivery _ -> ()

let attach api =
  let t =
    { api; next_tid = 0; waiting = Hashtbl.create 16; committed = 0; aborted = 0 }
  in
  let st =
    create ~participant:(Api.participant api) ~n_participants:(Api.n_participants api)
  in
  Byzantize.drive api (fun ~owe input ->
      apply st ~owe input;
      decided t input);
  t

let submit t ~ops ~on_decided =
  if
    not
      (well_formed ~participant:(Api.participant t.api)
         ~n_participants:(Api.n_participants t.api) ops)
  then invalid_arg "Two_phase.submit: no operations, or a bad or repeated cohort";
  let tid = Printf.sprintf "t%d.%d" (Api.participant t.api) t.next_tid in
  t.next_tid <- t.next_tid + 1;
  Hashtbl.replace t.waiting tid on_decided;
  Api.log_commit t.api (encode_event (Begin { tid; ops })) ~on_done:ignore

let partition_get node key =
  let described = Blockplane.App.describe (Unit_node.app node) in
  List.find_map
    (fun entry ->
      match String.split_on_char '=' entry with
      | [ k; v ] when String.equal k key -> Some v
      | _ -> None)
    (String.split_on_char ';' described)
