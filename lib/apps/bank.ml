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

module Ledger = Byzantize.Make (struct
  type state = (string, int) Hashtbl.t (* account -> balance *)

  let create ~participant:_ ~n_participants:_ = Hashtbl.create 16
  let add state acct n =
    Hashtbl.replace state acct (Option.value ~default:0 (Hashtbl.find_opt state acct) + n)

  let covers state acct n =
    match Hashtbl.find_opt state acct with Some b -> b >= n | None -> false

  let verify_op state = function
    | Open (acct, initial) -> initial >= 0 && not (Hashtbl.mem state acct)
    | Deposit (acct, n) -> n > 0 && Hashtbl.mem state acct
    | Withdraw (acct, n) -> n > 0 && covers state acct n
    | Transfer_debit { from_account; amount; _ } ->
        amount > 0 && covers state from_account amount
    | Credit_from_transfer _ -> false (* legal only while a transfer owes it *)

  let verify state payload =
    match decode_op payload with Ok op -> verify_op state op | Error _ -> false

  let apply state ~owe = function
    | Byzantize.Step payload -> (
        match decode_op payload with
        | Error _ -> ()
        | Ok (Open (acct, initial)) -> Hashtbl.replace state acct initial
        | Ok (Deposit (acct, n) | Credit_from_transfer (acct, n)) -> add state acct n
        | Ok (Withdraw (acct, n)) -> add state acct (-n)
        | Ok (Transfer_debit { from_account; dest; to_account; amount }) ->
            add state from_account (-amount);
            owe (Byzantize.Send (dest, xfer_payload ~to_account ~amount)))
    | Byzantize.Delivery { payload; _ } -> (
        (* A received transfer owes its one credit. *)
        match parse_xfer payload with
        | Some (to_account, amount) ->
            owe (Byzantize.Commit (encode_op (Credit_from_transfer (to_account, amount))))
        | None -> ())

  (* The pair order polymorphic [compare] gave: account, then balance. *)
  let compare_binding (k1, v1) (k2, v2) =
    match String.compare k1 k2 with 0 -> Int.compare v1 v2 | c -> c

  let describe state =
    String.concat ";"
      (List.map
         (fun (k, v) -> Printf.sprintf "%s=%d" k v)
         (List.sort compare_binding
            (Hashtbl.fold (fun k v acc -> (k, v) :: acc) state [])))

  let digest state = Bp_crypto.Sha256.digest (describe state)
end)

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
