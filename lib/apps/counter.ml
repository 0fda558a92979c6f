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

let parse_message payload =
  match String.split_on_char ':' payload with
  | [ "count"; id ] -> int_of_string_opt id
  | _ -> None

module Protocol = struct
  type state = {
    mutable counter : int;
    mutable pending : (int * int) list; (* unconsumed user requests: dest, id *)
    mutable unconsumed_received : int;
  }

  let create () = { counter = 0; pending = []; unconsumed_received = 0 }

  let verify state = function
    | Record.Commit payload when String.equal payload increment_payload ->
        (* Only legal if an actually-received message backs it — the
           counter cannot be inflated by a byzantine proposal. *)
        state.unconsumed_received > 0
    | Record.Commit payload -> parse_request payload <> None
    | Record.Comm { Record.dest; payload; _ } -> (
        (* Only legal if the matching user request was committed and is
           still unconsumed. *)
        match parse_message payload with
        | Some id -> List.mem (dest, id) state.pending
        | None -> false)
    | Record.Recv _ -> true (* middleware already checked it *)
    | Record.Mirrored _ -> true

  let apply state ~hash:_ = function
    | Record.Commit payload when String.equal payload increment_payload ->
        state.counter <- state.counter + 1;
        state.unconsumed_received <- state.unconsumed_received - 1
    | Record.Commit payload -> (
        match parse_request payload with
        | Some (dest, id) -> state.pending <- (dest, id) :: state.pending
        | None -> ())
    | Record.Comm { Record.dest; payload; _ } -> (
        match parse_message payload with
        | Some id ->
            state.pending <- List.filter (fun p -> p <> (dest, id)) state.pending
        | None -> ())
    | Record.Recv _ -> state.unconsumed_received <- state.unconsumed_received + 1
    | Record.Mirrored _ -> ()

  let digest state =
    Bp_crypto.Sha256.digest
      (Printf.sprintf "%d|%s|%d" state.counter
         (String.concat ","
            (List.map (fun (d, i) -> Printf.sprintf "%d:%d" d i) state.pending))
         state.unconsumed_received)

  let describe state = Printf.sprintf "counter=%d" state.counter
end

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
