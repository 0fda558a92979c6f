open Blockplane
open Bp_codec

(* ---------- paxos wire messages (carried as Blockplane payloads) ---------- *)

type ballot = { round : int; node : int }

let ballot_gt a b = a.round > b.round || (a.round = b.round && a.node > b.node)
let ballot_ge a b = a = b || ballot_gt a b

type pmsg =
  | Pprepare of { r : ballot }
  | Ppromise of { r : ballot; ok : bool; accepted : (int * ballot * string) list }
  | Ppropose of { r : ballot; inst : int; value : string }
  | Paccept of { r : ballot; inst : int; ok : bool }

let encode_ballot e b =
  Wire.varint e b.round;
  Wire.varint e b.node

let decode_ballot d =
  let round = Wire.read_varint d in
  let node = Wire.read_varint d in
  { round; node }

let encode_pmsg m =
  Wire.encode (fun e ->
      match m with
      | Pprepare { r } ->
          Wire.u8 e 0;
          encode_ballot e r
      | Ppromise { r; ok; accepted } ->
          Wire.u8 e 1;
          encode_ballot e r;
          Wire.bool e ok;
          Wire.list e
            (fun (inst, b, v) ->
              Wire.varint e inst;
              encode_ballot e b;
              Wire.string e v)
            accepted
      | Ppropose { r; inst; value } ->
          Wire.u8 e 2;
          encode_ballot e r;
          Wire.varint e inst;
          Wire.string e value
      | Paccept { r; inst; ok } ->
          Wire.u8 e 3;
          encode_ballot e r;
          Wire.varint e inst;
          Wire.bool e ok)

let decode_pmsg s =
  Wire.decode s (fun d ->
      match Wire.read_u8 d with
      | 0 -> Pprepare { r = decode_ballot d }
      | 1 ->
          let r = decode_ballot d in
          let ok = Wire.read_bool d in
          let accepted =
            Wire.read_list d (fun d ->
                let inst = Wire.read_varint d in
                let b = decode_ballot d in
                let v = Wire.read_string d in
                (inst, b, v))
          in
          Ppromise { r; ok; accepted }
      | 2 ->
          let r = decode_ballot d in
          let inst = Wire.read_varint d in
          Ppropose { r; inst; value = Wire.read_string d }
      | 3 ->
          let r = decode_ballot d in
          let inst = Wire.read_varint d in
          Paccept { r; inst; ok = Wire.read_bool d }
      | n -> raise (Wire.Malformed (Printf.sprintf "byz-paxos msg %d" n)))

let kind_of_pmsg = function
  | Pprepare _ -> "prepare"
  | Ppromise _ -> "promise"
  | Ppropose _ -> "propose"
  | Paccept _ -> "accept"

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
        match decode_pmsg payload with
        | Ok m -> credit state (kind_of_pmsg m) > 0
        | Error _ -> false)
    | Record.Recv _ -> true
    | Record.Mirrored _ -> true

  let apply state ~hash:_ = function
    | Record.Commit payload -> (
        match parse_event payload with
        | Some (kind, c) -> set_credit state kind (credit state kind + c)
        | None -> ())
    | Record.Comm { Record.payload; _ } -> (
        match decode_pmsg payload with
        | Ok m ->
            let kind = kind_of_pmsg m in
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

(* ---------- the user-space driver ---------- *)

type election = {
  eballot : ballot;
  mutable votes : int;
  mutable max_accepted : (int * ballot * string) list;
  mutable edone : bool;
  on_elected : bool -> unit;
}

type proposal = {
  pballot : ballot;
  inst : int;
  value : string;
  mutable acks : int;
  mutable pdone : bool;
  on_result : bool -> unit;
}

type t = {
  api : Api.t;
  me : int;
  n : int;
  mutable r : ballot; (* our proposal number, initially unique (= me) *)
  mutable l : bool; (* am I a leader *)
  mutable max_val : string option;
  mutable promised : ballot;
  mutable accepted : (int * (ballot * string)) list; (* acceptor, per instance *)
  mutable next_inst : int;
  mutable election : election option;
  mutable proposals : proposal list;
  mutable decided : (int * string) list;
}

let is_leader t = t.l
let decided t = t.decided

let majority t = (t.n / 2) + 1

let others t = List.filter (fun p -> p <> t.me) (List.init t.n Fun.id)

(* Commit an event granting send credits, then send the message to every
   other participant. *)
let commit_and_broadcast t msg ~on_done =
  let kind = kind_of_pmsg msg in
  Api.log_commit t.api (event_payload kind (t.n - 1)) ~on_done:(fun () ->
      let payload = encode_pmsg msg in
      List.iter (fun dest -> Api.send t.api ~dest payload ~on_done:ignore) (others t);
      on_done ())

let commit_and_send t ~dest msg =
  let kind = kind_of_pmsg msg in
  Api.log_commit t.api (event_payload kind 1) ~on_done:(fun () ->
      Api.send t.api ~dest (encode_pmsg msg) ~on_done:ignore)

(* Acceptor side (the "other algorithms" of §VI-E). *)
let handle_prepare t ~src r =
  if ballot_gt r t.promised then begin
    t.promised <- r;
    let accepted = List.map (fun (i, (b, v)) -> (i, b, v)) t.accepted in
    commit_and_send t ~dest:src (Ppromise { r; ok = true; accepted })
  end
  else commit_and_send t ~dest:src (Ppromise { r; ok = false; accepted = [] })

let handle_propose t ~src r inst value =
  if ballot_ge r t.promised then begin
    t.promised <- r;
    t.accepted <- (inst, (r, value)) :: List.remove_assoc inst t.accepted;
    commit_and_send t ~dest:src (Paccept { r; inst; ok = true })
  end
  else commit_and_send t ~dest:src (Paccept { r; inst; ok = false })

let handle_promise t r ok accepted =
  match t.election with
  | Some e when e.eballot = r && not e.edone ->
      if not ok then begin
        e.edone <- true;
        t.election <- None;
        (* r = next unique proposal number (Algorithm 3, line 15). *)
        t.r <- { round = t.r.round + 1; node = t.me };
        Api.log_commit t.api (event_payload "le-failed" 0) ~on_done:ignore;
        e.on_elected false
      end
      else begin
        e.votes <- e.votes + 1;
        List.iter
          (fun (inst, b, v) ->
            let better =
              match List.find_opt (fun (i, _, _) -> i = inst) e.max_accepted with
              | Some (_, b', _) -> ballot_gt b b'
              | None -> true
            in
            if better then
              e.max_accepted <-
                (inst, b, v)
                :: List.filter (fun (i, _, _) -> i <> inst) e.max_accepted)
          accepted;
        if e.votes >= majority t then begin
          e.edone <- true;
          t.election <- None;
          t.l <- true;
          t.max_val <-
            (match e.max_accepted with (_, _, v) :: _ -> Some v | [] -> None);
          List.iter
            (fun (inst, _, _) ->
              t.next_inst <- Stdlib.max t.next_inst (inst + 1))
            e.max_accepted;
          (* log-commit (l, max-val) — Algorithm 3, line 13. *)
          Api.log_commit t.api (event_payload "le-won" 0) ~on_done:(fun () ->
              e.on_elected true)
        end
      end
  | _ -> ()

let handle_accept t r inst ok =
  match List.find_opt (fun p -> p.inst = inst && p.pballot = r) t.proposals with
  | Some p when not p.pdone ->
      if not ok then begin
        p.pdone <- true;
        (* Algorithm 3, lines 29-32: lose leadership, bump r. *)
        t.l <- false;
        t.r <- { round = t.r.round + 1; node = t.me };
        Api.log_commit t.api (event_payload "deposed" 0) ~on_done:(fun () ->
            p.on_result false)
      end
      else begin
        p.acks <- p.acks + 1;
        if p.acks >= majority t then begin
          p.pdone <- true;
          t.decided <- (p.inst, p.value) :: t.decided;
          (* log-commit (value committed) — Algorithm 3, line 28. *)
          Api.log_commit t.api (event_payload "committed" 0) ~on_done:(fun () ->
              p.on_result true)
        end
      end
  | _ -> ()

let on_message t ~src payload =
  match decode_pmsg payload with
  | Error _ -> ()
  | Ok (Pprepare { r }) -> handle_prepare t ~src r
  | Ok (Ppromise { r; ok; accepted }) -> handle_promise t r ok accepted
  | Ok (Ppropose { r; inst; value }) -> handle_propose t ~src r inst value
  | Ok (Paccept { r; inst; ok }) -> handle_accept t r inst ok

let attach api ~n_participants =
  let me = Api.participant api in
  let t =
    {
      api;
      me;
      n = n_participants;
      r = { round = 0; node = me };
      l = false;
      max_val = None;
      promised = { round = -1; node = -1 };
      accepted = [];
      next_inst = 0;
      election = None;
      proposals = [];
      decided = [];
    }
  in
  Api.on_receive api (fun ~src payload -> on_message t ~src payload);
  t

let elect t ~on_elected =
  t.r <- { round = t.r.round + 1; node = t.me };
  let e =
    {
      eballot = t.r;
      votes = 1 (* our own acceptor votes for us *);
      max_accepted = [];
      edone = false;
      on_elected;
    }
  in
  t.election <- Some e;
  if ballot_gt t.r t.promised then t.promised <- t.r;
  (* log-commit (Leader Election) then send paxos-prepare (lines 5-7). *)
  commit_and_broadcast t (Pprepare { r = t.r }) ~on_done:ignore

let replicate t value ~on_result =
  (* log-commit (Replication, value) — line 20. *)
  Api.log_commit t.api (event_payload "replication" 0) ~on_done:(fun () ->
      if not t.l then on_result false
      else begin
        let inst = t.next_inst in
        t.next_inst <- inst + 1;
        let p = { pballot = t.r; inst; value; acks = 1; pdone = false; on_result } in
        (* Our own acceptor accepts immediately. *)
        t.accepted <- (inst, (t.r, value)) :: List.remove_assoc inst t.accepted;
        t.proposals <- p :: t.proposals;
        commit_and_broadcast t (Ppropose { r = t.r; inst; value }) ~on_done:ignore
      end)
