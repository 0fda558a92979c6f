open Blockplane

type input = Step of string | Delivery of { src : int; payload : string }
type debt = Send of int * string | Commit of string

module type PROTOCOL = sig
  type state

  val create : participant:int -> n_participants:int -> state
  val verify : state -> string -> bool
  val apply : state -> owe:(debt -> unit) -> input -> unit
  val digest : state -> string
  val describe : state -> string
end

let same_debt a b =
  match (a, b) with
  | Send (d, p), Send (d', p') -> d = d' && String.equal p p'
  | Commit p, Commit p' -> String.equal p p'
  | Send _, Commit _ | Commit _, Send _ -> false

module Make (P : PROTOCOL) = struct
  type state = {
    protocol : P.state;
    mutable owed : debt list; (* a multiset, in the order owed *)
    delivered : int array; (* per source: last comm_seq delivered *)
  }

  let create ~participant ~n_participants =
    {
      protocol = P.create ~participant ~n_participants;
      owed = [];
      delivered = Array.make n_participants (-1);
    }

  let owes t debt = List.exists (same_debt debt) t.owed
  let owe t debt = t.owed <- t.owed @ [ debt ]

  let pay t debt =
    let rec go = function
      | [] -> []
      | d :: rest -> if same_debt debt d then rest else d :: go rest
    in
    t.owed <- go t.owed

  let verify t = function
    | Record.Comm { Record.dest; payload; _ } -> owes t (Send (dest, payload))
    | Record.Commit step -> owes t (Commit step) || P.verify t.protocol step
    | Record.Recv _ ->
        (* The middleware's receive checks judged it, and the sending
           unit's adapter judged the send. *)
        (true [@bplint.allow "R10-accept"])
    | Record.Mirrored _ -> false (* never handed to an app *)

  let apply t ~hash:_ = function
    | Record.Comm { Record.dest; payload; _ } -> pay t (Send (dest, payload))
    | Record.Commit step ->
        pay t (Commit step);
        P.apply t.protocol ~owe:(owe t) (Step step)
    | Record.Recv { Record.src; tcomm_seq; tpayload; _ } ->
        if tcomm_seq > t.delivered.(src) then begin
          t.delivered.(src) <- tcomm_seq;
          P.apply t.protocol ~owe:(owe t) (Delivery { src; payload = tpayload })
        end
    | Record.Mirrored _ -> ()

  let digest t =
    let open Bp_codec in
    Bp_crypto.Sha256.digest
      (Wire.encode (fun e ->
           Wire.string e (P.digest t.protocol);
           Wire.list e
             (function
               | Send (dest, payload) ->
                   Wire.varint e (dest + 1);
                   Wire.string e payload
               | Commit payload ->
                   Wire.varint e 0;
                   Wire.string e payload)
             t.owed;
           Array.iter (Wire.zigzag e) t.delivered))

  let describe t = P.describe t.protocol
end

let drive api apply =
  let submit = function
    | Send (dest, payload) -> Api.send api ~dest payload ~on_done:ignore
    | Commit payload -> Api.log_commit api payload ~on_done:ignore
  in
  Api.on_receive api (fun ~src payload ->
      ignore (Api.receive api ~src);
      apply ~owe:submit (Delivery { src; payload }));
  Api.on_commit api (fun payload -> apply ~owe:submit (Step payload))
