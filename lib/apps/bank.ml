open Blockplane
open Bp_codec

type op =
  | Open of string * int
  | Deposit of string * int
  | Withdraw of string * int
  | Credit_from_transfer of string * int
  | Transfer_debit of {
      from_account : string;
      dest : int;
      to_account : string;
      amount : int;
    }

let encode_op op =
  Wire.encode (fun e ->
      match op with
      | Open (acct, n) ->
          Wire.u8 e 0;
          Wire.string e acct;
          Wire.zigzag e n
      | Deposit (acct, n) ->
          Wire.u8 e 1;
          Wire.string e acct;
          Wire.zigzag e n
      | Withdraw (acct, n) ->
          Wire.u8 e 2;
          Wire.string e acct;
          Wire.zigzag e n
      | Credit_from_transfer (acct, n) ->
          Wire.u8 e 3;
          Wire.string e acct;
          Wire.zigzag e n
      | Transfer_debit { from_account; dest; to_account; amount } ->
          Wire.u8 e 4;
          Wire.string e from_account;
          Wire.varint e dest;
          Wire.string e to_account;
          Wire.zigzag e amount)

let decode_op s =
  Wire.decode s (fun d ->
      match Wire.read_u8 d with
      | 0 ->
          let acct = Wire.read_string d in
          Open (acct, Wire.read_zigzag d)
      | 1 ->
          let acct = Wire.read_string d in
          Deposit (acct, Wire.read_zigzag d)
      | 2 ->
          let acct = Wire.read_string d in
          Withdraw (acct, Wire.read_zigzag d)
      | 3 ->
          let acct = Wire.read_string d in
          Credit_from_transfer (acct, Wire.read_zigzag d)
      | 4 ->
          let from_account = Wire.read_string d in
          let dest = Wire.read_varint d in
          let to_account = Wire.read_string d in
          let amount = Wire.read_zigzag d in
          Transfer_debit { from_account; dest; to_account; amount }
      | n -> raise (Wire.Malformed (Printf.sprintf "bank op %d" n)))

(* Transfer messages on the wire: the credit instruction. *)
let xfer_payload ~to_account ~amount =
  Wire.encode (fun e ->
      Wire.string e "xfer";
      Wire.string e to_account;
      Wire.zigzag e amount)

let parse_xfer s =
  match
    Wire.decode s (fun d ->
        let tag = Wire.read_string d in
        let to_account = Wire.read_string d in
        let amount = Wire.read_zigzag d in
        (tag, to_account, amount))
  with
  | Ok ("xfer", to_account, amount) -> Some (to_account, amount)
  | _ -> None

module Ledger = struct
  type state = {
    balances : (string, int) Hashtbl.t;
    mutable outbox : (int * string * int) list; (* dest, to_account, amount *)
    mutable inbox : (string * int) list; (* to_account, amount, unconsumed *)
  }

  let create () = { balances = Hashtbl.create 16; outbox = []; inbox = [] }

  let balance state acct = Hashtbl.find_opt state.balances acct

  let remove_first p l =
    let rec go acc = function
      | [] -> None
      | x :: rest -> if p x then Some (List.rev_append acc rest) else go (x :: acc) rest
    in
    go [] l

  let verify_op state = function
    | Open (acct, initial) -> initial >= 0 && not (Hashtbl.mem state.balances acct)
    | Deposit (acct, n) -> n > 0 && Hashtbl.mem state.balances acct
    | Withdraw (acct, n) -> (
        n > 0
        &&
        match balance state acct with Some b -> b >= n | None -> false)
    | Credit_from_transfer (acct, n) ->
        (* Only a genuinely received transfer can mint this credit. *)
        List.mem (acct, n) state.inbox
    | Transfer_debit { from_account; amount; _ } -> (
        amount > 0
        &&
        match balance state from_account with
        | Some b -> b >= amount
        | None -> false)

  let verify state = function
    | Record.Commit payload -> (
        match decode_op payload with Ok op -> verify_op state op | Error _ -> false)
    | Record.Comm { Record.dest; payload; _ } -> (
        (* A transfer message must be licensed by a committed debit. *)
        match parse_xfer payload with
        | Some (to_account, amount) ->
            List.mem (dest, to_account, amount) state.outbox
        | None -> false)
    | Record.Recv _ -> true
    | Record.Mirrored _ -> true

  let apply state ~hash:_ = function
    | Record.Commit payload -> (
        match decode_op payload with
        | Error _ -> ()
        | Ok (Open (acct, initial)) -> Hashtbl.replace state.balances acct initial
        | Ok (Deposit (acct, n)) ->
            Hashtbl.replace state.balances acct
              (Option.value ~default:0 (balance state acct) + n)
        | Ok (Withdraw (acct, n)) ->
            Hashtbl.replace state.balances acct
              (Option.value ~default:0 (balance state acct) - n)
        | Ok (Credit_from_transfer (acct, n)) ->
            Hashtbl.replace state.balances acct
              (Option.value ~default:0 (balance state acct) + n);
            (match remove_first (fun x -> x = (acct, n)) state.inbox with
            | Some rest -> state.inbox <- rest
            | None -> ())
        | Ok (Transfer_debit { from_account; dest; to_account; amount }) ->
            Hashtbl.replace state.balances from_account
              (Option.value ~default:0 (balance state from_account) - amount);
            state.outbox <- (dest, to_account, amount) :: state.outbox)
    | Record.Comm { Record.dest; payload; _ } -> (
        match parse_xfer payload with
        | Some (to_account, amount) -> (
            match
              remove_first (fun x -> x = (dest, to_account, amount)) state.outbox
            with
            | Some rest -> state.outbox <- rest
            | None -> ())
        | None -> ())
    | Record.Recv tr -> (
        match parse_xfer tr.Record.tpayload with
        | Some (to_account, amount) -> state.inbox <- (to_account, amount) :: state.inbox
        | None -> ())
    | Record.Mirrored _ -> ()

  let sorted_balances state =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) state.balances [])

  let digest state =
    Bp_crypto.Sha256.digest
      (String.concat ";"
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (sorted_balances state))
      ^ Printf.sprintf "|out=%d|in=%d" (List.length state.outbox)
          (List.length state.inbox))

  let describe state =
    String.concat ";"
      (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (sorted_balances state))
end

type t = { api : Api.t }

let attach api =
  let t = { api } in
  (* Destination side: every received transfer message is committed as a
     credit. The handler consumes the delivery, so it also pops it from
     the reception buffer. *)
  Api.on_receive api (fun ~src payload ->
      ignore (Api.receive api ~src);
      match parse_xfer payload with
      | Some (to_account, amount) ->
          Api.log_commit api
            (encode_op (Credit_from_transfer (to_account, amount)))
            ~on_done:ignore
      | None -> ());
  t

let commit t ?on_rejected op ~on_done =
  Api.log_commit t.api ?on_rejected (encode_op op) ~on_done

let open_account t acct initial ~on_done = commit t (Open (acct, initial)) ~on_done
let deposit t acct n ~on_done = commit t (Deposit (acct, n)) ~on_done

let withdraw t ?on_rejected acct n ~on_done =
  commit t ?on_rejected (Withdraw (acct, n)) ~on_done

let transfer t ?on_rejected ~from_account ~dest ~to_account amount ~on_done =
  commit t ?on_rejected
    (Transfer_debit { from_account; dest; to_account; amount })
    ~on_done:(fun () ->
      Api.send t.api ~dest (xfer_payload ~to_account ~amount) ~on_done)

let balance node acct =
  let described = App.describe (Unit_node.app node) in
  let entries = String.split_on_char ';' described in
  List.find_map
    (fun entry ->
      match String.split_on_char '=' entry with
      | [ a; b ] when String.equal a acct -> int_of_string_opt b
      | _ -> None)
    entries
