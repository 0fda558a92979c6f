open Blockplane
module Msg = Bp_paxos.Msg
module Replica = Bp_paxos.Replica

let kind_of_msg = function
  | Msg.Prepare _ -> "prepare"
  | Msg.Promise _ -> "promise"
  | Msg.Propose _ -> "propose"
  | Msg.Accepted _ -> "accept"
  | Msg.Learn _ -> "learn"

(* Step records are commits "evt:<what>:<arg>":
   - "evt:elect:0" runs the leader-election routine;
   - "evt:replication:<value>" proposes the value, if this participant leads;
   - "evt:<message kind>:<n>" is a send step: the oldest pending output of
     that kind to n destinations becomes owed;
   - "evt:le-won:0", "evt:le-failed:0", "evt:committed:0" and
     "evt:deposed:0" record an outcome. *)
let event what arg = Printf.sprintf "evt:%s:%s" what arg

let parse_event payload =
  match String.split_on_char ':' payload with
  | "evt" :: what :: (_ :: _ as arg) -> Some (what, String.concat ":" arg)
  | _ -> None

(* One participant's Paxos node, as each node of its unit replays it
   from the Local Log (and the driver from the lead node's executed
   stream). Outputs to other participants wait in [pending] until a send
   step releases them; a message to itself is delivered at once and
   never leaves the unit. [waiting] holds the driver's callbacks for its
   own election and replication steps; a shadow's stays empty. *)
type node = {
  replica : Replica.t;
  mutable pending : (Msg.t * int list) list; (* oldest first *)
  mutable waiting : (string * (int option -> unit)) list;
}

(* The first element satisfying [p], and the list without it. *)
let rec take_first p = function
  | [] -> None
  | x :: rest when p x -> Some (x, rest)
  | x :: rest -> Option.map (fun (y, rest) -> (y, x :: rest)) (take_first p rest)

(* [on_pending] gets the send step that releases each new pending output. *)
let make ~participant:me ~n_participants:n ~on_pending =
  let others = List.filter (fun p -> p <> me) (List.init n Fun.id) in
  let rec node =
    lazy
      {
        replica = Replica.of_net net ~n ~id:me ~on_learn:(fun _ _ -> ());
        pending = [];
        waiting = [];
      }
  and net =
    {
      Replica.send =
        (fun ~dst msg -> if dst = me then deliver_self msg else stage msg [ dst ]);
      broadcast =
        (fun msg ->
          stage msg others;
          deliver_self msg);
    }
  and stage msg dests =
    let node = Lazy.force node in
    node.pending <- node.pending @ [ (msg, dests) ];
    on_pending (event (kind_of_msg msg) (string_of_int (List.length dests)))
  and deliver_self msg = Replica.receive (Lazy.force node).replica ~src:me msg in
  Lazy.force node

let is_send_step kind count (msg, dests) =
  String.equal (kind_of_msg msg) kind
  && String.equal (string_of_int (List.length dests)) count

(* The callback waiting on step [payload]: [Some instance] on success
   (0 for an election), [None] on failure. *)
let outcome node payload =
  match take_first (fun (p, _) -> String.equal p payload) node.waiting with
  | Some ((_, k), rest) ->
      node.waiting <- rest;
      k
  | None -> ignore

let apply node ~owe = function
  | Byzantize.Delivery { src; payload } -> (
      match Msg.decode payload with
      | Ok msg -> Replica.receive node.replica ~src msg
      | Error _ -> ())
  | Byzantize.Step payload -> (
      match parse_event payload with
      | Some ("elect", "0") ->
          let k = outcome node payload in
          Replica.try_lead node.replica
            ~on_elected:(fun () -> k (Some 0))
            ~on_nack:(fun () -> k None)
      | Some ("replication", value) ->
          let k = outcome node payload in
          if Replica.is_leader node.replica then
            Replica.propose node.replica value
              ~on_commit:(fun instance -> k (Some instance))
              ~on_nack:(fun () -> k None)
          else k None
      | Some (kind, count) -> (
          match take_first (is_send_step kind count) node.pending with
          | Some ((msg, dests), rest) ->
              node.pending <- rest;
              let payload = Msg.encode msg in
              List.iter (fun dest -> owe (Byzantize.Send (dest, payload))) dests
          | None -> ())
      | None -> ())

module Protocol = Byzantize.Make (struct
  type state = node

  let create ~participant ~n_participants =
    make ~participant ~n_participants ~on_pending:ignore

  (* Each step is judged against the Paxos state the log built. *)
  let verify node payload =
    match parse_event payload with
    | Some ("elect", "0") ->
        (* Any participant may try to lead: ballots keep that safe. *)
        (true [@bplint.allow "R10-accept"])
    | Some ("replication", _) -> Replica.is_leader node.replica
    | Some (("le-won" | "le-failed" | "committed" | "deposed"), "0") ->
        (* Outcome markers change no state and owe nothing. *)
        (true [@bplint.allow "R10-accept"])
    | Some (kind, count) -> List.exists (is_send_step kind count) node.pending
    | None -> false

  let apply = apply

  let digest node =
    Bp_crypto.Sha256.digest_list
      (string_of_bool (Replica.is_leader node.replica)
      :: List.concat_map
           (fun (msg, dests) -> Msg.encode msg :: List.map string_of_int dests)
           node.pending)

  let describe node =
    Printf.sprintf "leader=%b pending=%d"
      (Replica.is_leader node.replica)
      (List.length node.pending)
end)

(* The driver feeds its own node the lead node's executed stream, in the
   order every unit node's shadow sees it, so its replica sends exactly
   what the shadows owe: it commits a send step for each new pending
   output, and sends what each executed send step releases. *)
type t = { api : Api.t; node : node; mutable decided : (int * string) list }

let is_leader t = Replica.is_leader t.node.replica
let decided t = t.decided

let attach api ~n_participants =
  let node =
    make ~participant:(Api.participant api) ~n_participants ~on_pending:(fun step ->
        Api.log_commit api step ~on_done:ignore)
  in
  Byzantize.drive api (apply node);
  { api; node; decided = [] }

(* Commit an election or replication step; [k] gets its outcome once it
   executes, or [None] if the unit rejects it. *)
let step t payload k =
  t.node.waiting <- t.node.waiting @ [ (payload, k) ];
  Api.log_commit t.api payload ~on_done:ignore ~on_rejected:(fun () ->
      outcome t.node payload None)

(* Algorithm 3 log-commits each outcome before reporting it. *)
let mark t what ok k = Api.log_commit t.api (event what "0") ~on_done:(fun () -> k ok)

let elect t ~on_elected =
  step t (event "elect" "0") (function
    | Some _ -> mark t "le-won" true on_elected
    | None -> mark t "le-failed" false on_elected)

let replicate t value ~on_result =
  step t (event "replication" value) (function
    | Some instance ->
        t.decided <- (instance, value) :: t.decided;
        mark t "committed" true on_result
    | None -> mark t "deposed" false on_result)
