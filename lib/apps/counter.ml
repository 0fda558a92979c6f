open Blockplane

(* Record payload formats:
   - Commit "request:<dest>:<id>"    — a trusted user triggered a request
   - Comm  payload "count:<id>"      — the message carrying the request
   - Commit "increment-counter"      — consume one received message *)

let request_payload ~dest ~id = Printf.sprintf "request:%d:%d" dest id
let message_payload ~id = Printf.sprintf "count:%d" id
let increment_payload = "increment-counter"

let parse_request payload =
  match String.split_on_char ':' payload with
  | [ "request"; dest; id ] -> (
      match (int_of_string_opt dest, int_of_string_opt id) with
      | Some d, Some i -> Some (d, i)
      | _ -> None)
  | _ -> None

module Protocol = Byzantize.Make (struct
  type state = { mutable counter : int }

  let create ~participant:_ ~n_participants:_ = { counter = 0 }

  (* An increment is legal only while a received message owes it, so a
     byzantine node cannot inflate the counter. *)
  let verify _ payload = Option.is_some (parse_request payload)

  let apply state ~owe = function
    | Byzantize.Step payload when String.equal payload increment_payload ->
        state.counter <- state.counter + 1
    | Byzantize.Step payload -> (
        match parse_request payload with
        | Some (dest, id) -> owe (Byzantize.Send (dest, message_payload ~id))
        | None -> ())
    | Byzantize.Delivery _ -> owe (Byzantize.Commit increment_payload)

  let digest state = Bp_crypto.Sha256.digest (string_of_int state.counter)
  let describe state = Printf.sprintf "counter=%d" state.counter
end)

type t = { api : Api.t; mutable next_id : int }

let attach api =
  let t = { api; next_id = 0 } in
  (* StartServer (Algorithm 1, lines 6-11): every received message is
     log-committed as an increment event. *)
  Api.on_receive api (fun ~src _payload ->
      ignore (Api.receive api ~src);
      Api.log_commit api increment_payload ~on_done:ignore);
  t

let user_request t ~dest ~on_done =
  let id = t.next_id in
  t.next_id <- id + 1;
  (* Algorithm 1, lines 2-5: commit the request info, then send. *)
  Api.log_commit t.api (request_payload ~dest ~id) ~on_done:(fun () ->
      Api.send t.api ~dest (message_payload ~id) ~on_done);
  ()

let value node =
  match
    String.split_on_char '=' (App.describe (Unit_node.app node))
  with
  | [ "counter"; n ] -> int_of_string n
  | _ -> invalid_arg "Counter.value: node does not run the counter protocol"
