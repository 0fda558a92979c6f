open Blockplane
module Msg = Bp_paxos.Msg
module Replica = Bp_paxos.Replica

let kind_of_msg = function
  | Msg.Prepare _ -> "prepare"
  | Msg.Promise _ -> "promise"
  | Msg.Propose _ -> "propose"
  | Msg.Accepted _ -> "accept"
  | Msg.Learn _ -> "learn"

(* Commit payloads: "evt:<kind>:<credits>" grants send credits for that
   message kind; other commits record protocol state changes. *)
let event_payload kind credits = Printf.sprintf "evt:%s:%d" kind credits

let parse_event payload =
  match String.split_on_char ':' payload with
  | [ "evt"; kind; credits ] -> (
      match int_of_string_opt credits with
      | Some c -> Some (kind, c)
      | None -> None)
  | _ -> None

(* ---------- the replicated protocol state (verification routines) ---------- *)

module Protocol = struct
  type state = { mutable credits : (string * int) list }

  let create () = { credits = [] }

  let credit state kind =
    match List.assoc_opt kind state.credits with Some c -> c | None -> 0

  let set_credit state kind c =
    state.credits <- (kind, c) :: List.remove_assoc kind state.credits

  let verify state = function
    | Record.Commit payload -> (
        match parse_event payload with
        | Some (_, c) -> c >= 0 && c <= 16
        | None ->
            (* free-form state-change commits (leader flags, committed
               markers) are always legal protocol bookkeeping *)
            true)
    | Record.Comm { Record.payload; _ } -> (
        (* A paxos message may only leave if the protocol committed a
           matching event first (§III-C's send verification routine). *)
        match Msg.decode payload with
        | Ok m -> credit state (kind_of_msg m) > 0
        | Error _ -> false)
    | Record.Recv _ -> true
    | Record.Mirrored _ -> true

  let apply state ~hash:_ = function
    | Record.Commit payload -> (
        match parse_event payload with
        | Some (kind, c) -> set_credit state kind (credit state kind + c)
        | None -> ())
    | Record.Comm { Record.payload; _ } -> (
        match Msg.decode payload with
        | Ok m ->
            let kind = kind_of_msg m in
            set_credit state kind (credit state kind - 1)
        | Error _ -> ())
    | Record.Recv _ | Record.Mirrored _ -> ()

  let digest state =
    let sorted = List.sort compare state.credits in
    Bp_crypto.Sha256.digest
      (String.concat ";"
         (List.map (fun (k, c) -> Printf.sprintf "%s=%d" k c) sorted))

  let describe state =
    String.concat ","
      (List.map (fun (k, c) -> Printf.sprintf "%s=%d" k c)
         (List.sort compare state.credits))
end

(* ---------- the Blockplane adapter ---------- *)

type t = { api : Api.t; replica : Replica.t; mutable decided : (int * string) list }

let is_leader t = Replica.is_leader t.replica
let decided t = t.decided

(* A protocol state change (Algorithm 3's le-won, replication, ...):
   commit it, then continue. *)
let commit t kind k = Api.log_commit t.api (event_payload kind 0) ~on_done:k

(* Algorithm 3's send: commit an event granting one send credit per
   destination, then write the communication records. [Api.send] cannot
   address the participant itself, so a message to self is delivered
   locally; it never leaves the unit and needs no credit. *)
let net api ~n ~deliver_self =
  let me = Api.participant api in
  let others = List.filter (fun p -> p <> me) (List.init n Fun.id) in
  let send_all msg dests k =
    Api.log_commit api
      (event_payload (kind_of_msg msg) (List.length dests))
      ~on_done:(fun () ->
        let payload = Msg.encode msg in
        List.iter (fun dest -> Api.send api ~dest payload ~on_done:ignore) dests;
        k ())
  in
  {
    Replica.send =
      (fun ~dst msg ->
        if dst = me then deliver_self msg else send_all msg [ dst ] ignore);
    broadcast = (fun msg -> send_all msg others (fun () -> deliver_self msg));
  }

let attach api ~n_participants =
  let me = Api.participant api in
  let rec replica =
    lazy
      (Replica.of_net
         (net api ~n:n_participants ~deliver_self:(fun msg ->
              Replica.receive (Lazy.force replica) ~src:me msg))
         ~n:n_participants ~id:me ~on_learn:(fun _ _ -> ()))
  in
  let t = { api; replica = Lazy.force replica; decided = [] } in
  Api.on_receive api (fun ~src payload ->
      ignore (Api.receive api ~src);
      match Msg.decode payload with
      | Ok msg -> Replica.receive t.replica ~src msg
      | Error _ -> ());
  t

let elect t ~on_elected =
  Replica.try_lead t.replica
    ~on_elected:(fun () -> commit t "le-won" (fun () -> on_elected true))
    ~on_nack:(fun () -> commit t "le-failed" (fun () -> on_elected false))

let replicate t value ~on_result =
  commit t "replication" (fun () ->
      if not (is_leader t) then on_result false
      else
        Replica.propose t.replica value
          ~on_commit:(fun instance ->
            t.decided <- (instance, value) :: t.decided;
            commit t "committed" (fun () -> on_result true))
          ~on_nack:(fun () -> commit t "deposed" (fun () -> on_result false)))
