open Blockplane
open Bp_codec

(* ---------- wire messages between participants ---------- *)

type wmsg =
  | Prepare of { tid : string; op : Bp_storage.Kv.op }
  | Vote of { tid : string; yes : bool; cohort : int }
  | Decision of { tid : string; commit : bool }

let encode_wmsg m =
  Wire.encode (fun e ->
      match m with
      | Prepare { tid; op } ->
          Wire.u8 e 0;
          Wire.string e tid;
          Wire.string e (Bp_storage.Kv.encode_op op)
      | Vote { tid; yes; cohort } ->
          Wire.u8 e 1;
          Wire.string e tid;
          Wire.bool e yes;
          Wire.varint e cohort
      | Decision { tid; commit } ->
          Wire.u8 e 2;
          Wire.string e tid;
          Wire.bool e commit)

let decode_wmsg s =
  Wire.decode s (fun d ->
      match Wire.read_u8 d with
      | 0 ->
          let tid = Wire.read_string d in
          let op_s = Wire.read_string d in
          (match Bp_storage.Kv.decode_op op_s with
          | Ok op -> Prepare { tid; op }
          | Error m -> raise (Wire.Malformed m))
      | 1 ->
          let tid = Wire.read_string d in
          let yes = Wire.read_bool d in
          let cohort = Wire.read_varint d in
          Vote { tid; yes; cohort }
      | 2 ->
          let tid = Wire.read_string d in
          Decision { tid; commit = Wire.read_bool d }
      | n -> raise (Wire.Malformed (Printf.sprintf "2pc wmsg %d" n)))

let kind_of_wmsg = function
  | Prepare _ -> "prepare"
  | Vote _ -> "vote"
  | Decision _ -> "decision"

(* ---------- committed protocol events ---------- *)

type event =
  | Begin of { tid : string; cohorts : int list }
  | Decide of { tid : string; commit : bool }
  | Vote_cast of { tid : string; yes : bool; cohort : int }
  | Finish of { tid : string }

let encode_event ev =
  Wire.encode (fun e ->
      match ev with
      | Begin { tid; cohorts } ->
          Wire.u8 e 0;
          Wire.string e tid;
          Wire.list e (Wire.varint e) cohorts
      | Decide { tid; commit } ->
          Wire.u8 e 1;
          Wire.string e tid;
          Wire.bool e commit
      | Vote_cast { tid; yes; cohort } ->
          Wire.u8 e 2;
          Wire.string e tid;
          Wire.bool e yes;
          Wire.varint e cohort
      | Finish { tid } ->
          Wire.u8 e 3;
          Wire.string e tid)

let decode_event s =
  Wire.decode s (fun d ->
      match Wire.read_u8 d with
      | 0 ->
          let tid = Wire.read_string d in
          let cohorts = Wire.read_list d Wire.read_varint in
          Begin { tid; cohorts }
      | 1 ->
          let tid = Wire.read_string d in
          Decide { tid; commit = Wire.read_bool d }
      | 2 ->
          let tid = Wire.read_string d in
          let yes = Wire.read_bool d in
          let cohort = Wire.read_varint d in
          Vote_cast { tid; yes; cohort }
      | 3 -> Finish { tid = Wire.read_string d }
      | n -> raise (Wire.Malformed (Printf.sprintf "2pc event %d" n)))

(* ---------- the replicated protocol state ---------- *)

module Protocol = struct
  type txn_coord = {
    cohorts : int list;
    mutable votes : (int * bool) list; (* received votes *)
    mutable decided : bool option;
  }

  type txn_cohort = {
    cop : Bp_storage.Kv.op;
    mutable voted : bool option;
    mutable decision : bool option; (* received decision *)
    mutable finished : bool;
  }

  type state = {
    kv : Bp_storage.Kv.t;
    coord : (string, txn_coord) Hashtbl.t;
    cohort : (string, txn_cohort) Hashtbl.t;
    credits : (string * string, int) Hashtbl.t; (* (msg kind, tid) -> sends allowed *)
  }

  let create ~participant:_ ~n_participants:_ =
    {
      kv = Bp_storage.Kv.create ();
      coord = Hashtbl.create 16;
      cohort = Hashtbl.create 16;
      credits = Hashtbl.create 16;
    }

  let credit state key =
    Option.value ~default:0 (Hashtbl.find_opt state.credits key)

  let add_credit state key n = Hashtbl.replace state.credits key (credit state key + n)

  let all_votes_yes_and_complete t =
    List.length t.votes = List.length t.cohorts
    && List.for_all (fun (_, yes) -> yes) t.votes

  let verify state = function
    | Record.Commit payload -> (
        match decode_event payload with
        | Error _ -> false
        | Ok (Begin { tid; cohorts }) ->
            cohorts <> [] && not (Hashtbl.mem state.coord tid)
        | Ok (Decide { tid; commit }) -> (
            match Hashtbl.find_opt state.coord tid with
            | None -> false
            | Some t ->
                t.decided = None
                (* COMMIT is only a legal decision when every cohort's YES
                   vote was genuinely received — the safety core of 2PC. *)
                && ((not commit) || all_votes_yes_and_complete t))
        | Ok (Vote_cast { tid; yes; cohort = _ }) -> (
            match Hashtbl.find_opt state.cohort tid with
            | None -> false (* voting without a received prepare *)
            | Some t ->
                t.voted = None
                (* the vote must be honest about whether the op applies *)
                && yes = Bp_storage.Kv.can_apply state.kv t.cop)
        | Ok (Finish { tid }) -> (
            match Hashtbl.find_opt state.cohort tid with
            | None -> false
            | Some t -> t.decision <> None && not t.finished))
    | Record.Comm { Record.payload; _ } -> (
        match decode_wmsg payload with
        | Error _ -> false
        | Ok m -> (
            let tid =
              match m with
              | Prepare { tid; _ } | Vote { tid; _ } | Decision { tid; _ } -> tid
            in
            credit state (kind_of_wmsg m, tid) > 0))
    | Record.Recv _ | Record.Mirrored _ ->
        (* The middleware judged receives; mirror entries never reach an app. *)
        (true [@bplint.allow "R10-accept"])

  let apply state ~hash:_ = function
    | Record.Commit payload -> (
        match decode_event payload with
        | Error _ -> ()
        | Ok (Begin { tid; cohorts }) ->
            Hashtbl.replace state.coord tid { cohorts; votes = []; decided = None };
            add_credit state ("prepare", tid) (List.length cohorts)
        | Ok (Decide { tid; commit }) -> (
            match Hashtbl.find_opt state.coord tid with
            | None -> ()
            | Some t ->
                t.decided <- Some commit;
                add_credit state ("decision", tid) (List.length t.cohorts))
        | Ok (Vote_cast { tid; yes; cohort = _ }) -> (
            match Hashtbl.find_opt state.cohort tid with
            | None -> ()
            | Some t ->
                t.voted <- Some yes;
                add_credit state ("vote", tid) 1)
        | Ok (Finish { tid }) -> (
            match Hashtbl.find_opt state.cohort tid with
            | None -> ()
            | Some t ->
                t.finished <- true;
                if t.decision = Some true then
                  ignore (Bp_storage.Kv.apply state.kv t.cop)))
    | Record.Comm { Record.payload; _ } -> (
        match decode_wmsg payload with
        | Error _ -> ()
        | Ok m ->
            let tid =
              match m with
              | Prepare { tid; _ } | Vote { tid; _ } | Decision { tid; _ } -> tid
            in
            let key = (kind_of_wmsg m, tid) in
            Hashtbl.replace state.credits key (credit state key - 1))
    | Record.Recv tr -> (
        match decode_wmsg tr.Record.tpayload with
        | Error _ -> ()
        | Ok (Prepare { tid; op }) ->
            if not (Hashtbl.mem state.cohort tid) then
              Hashtbl.replace state.cohort tid
                { cop = op; voted = None; decision = None; finished = false }
        | Ok (Vote { tid; yes; cohort }) -> (
            match Hashtbl.find_opt state.coord tid with
            | None -> ()
            | Some t ->
                if not (List.mem_assoc cohort t.votes) then
                  t.votes <- (cohort, yes) :: t.votes)
        | Ok (Decision { tid; commit }) -> (
            match Hashtbl.find_opt state.cohort tid with
            | None -> ()
            | Some t -> t.decision <- Some commit))
    | Record.Mirrored _ -> ()

  let digest state =
    let parts =
      [
        Bp_storage.Kv.digest state.kv;
        string_of_int (Hashtbl.length state.coord);
        string_of_int (Hashtbl.length state.cohort);
      ]
    in
    Bp_crypto.Sha256.digest (String.concat "|" parts)

  let describe state =
    String.concat ";"
      (List.map
         (fun (k, v) -> Printf.sprintf "%s=%s" k v)
         (Bp_storage.Kv.bindings state.kv))
end

(* ---------- drivers ---------- *)

type outcome = Committed | Aborted

type pending = {
  ops : (int * Bp_storage.Kv.op) list;
  mutable votes_in : (int * bool) list;
  mutable done_ : bool;
  on_decided : outcome -> unit;
}

type t = {
  api : Api.t;
  mutable next_tid : int;
  pending : (string, pending) Hashtbl.t;
  mutable committed : int;
  mutable aborted : int;
}

let decided_count t = (t.committed, t.aborted)

let decide t tid p =
  if not p.done_ then begin
    p.done_ <- true;
    let commit = List.for_all (fun (_, yes) -> yes) p.votes_in in
    Api.log_commit t.api (encode_event (Decide { tid; commit })) ~on_done:(fun () ->
        List.iter
          (fun (c, _) ->
            Api.send t.api ~dest:c (encode_wmsg (Decision { tid; commit }))
              ~on_done:ignore)
          p.ops;
        Hashtbl.remove t.pending tid;
        if commit then t.committed <- t.committed + 1 else t.aborted <- t.aborted + 1;
        p.on_decided (if commit then Committed else Aborted))
  end

let attach_coordinator api =
  let t =
    { api; next_tid = 0; pending = Hashtbl.create 16; committed = 0; aborted = 0 }
  in
  Api.on_receive api (fun ~src payload ->
      ignore (Api.receive api ~src);
      match decode_wmsg payload with
      | Ok (Vote { tid; yes; cohort }) -> (
          match Hashtbl.find_opt t.pending tid with
          | None -> ()
          | Some p ->
              if not (List.mem_assoc cohort p.votes_in) then begin
                p.votes_in <- (cohort, yes) :: p.votes_in;
                if List.length p.votes_in = List.length p.ops then decide t tid p
              end)
      | _ -> ());
  t

let submit t ~ops ~on_decided =
  if ops = [] then invalid_arg "Two_phase.submit: no operations";
  let tid = Printf.sprintf "t%d.%d" (Api.participant t.api) t.next_tid in
  t.next_tid <- t.next_tid + 1;
  let p = { ops; votes_in = []; done_ = false; on_decided } in
  Hashtbl.replace t.pending tid p;
  Api.log_commit t.api
    (encode_event (Begin { tid; cohorts = List.map fst ops }))
    ~on_done:(fun () ->
      List.iter
        (fun (c, op) ->
          Api.send t.api ~dest:c (encode_wmsg (Prepare { tid; op })) ~on_done:ignore)
        ops)

let attach_cohort api =
  let me = Api.participant api in
  Api.on_receive api (fun ~src payload ->
      ignore (Api.receive api ~src);
      match decode_wmsg payload with
      | Ok (Prepare { tid; _ }) ->
          (* Optimistic vote: try YES; if the replicas' verification
             routines reject it (the op does not apply), cast NO. The
             routines force the vote to be honest either way. *)
          let cast yes =
            Api.log_commit api
              (encode_event (Vote_cast { tid; yes; cohort = me }))
              ~on_done:(fun () ->
                Api.send api ~dest:src (encode_wmsg (Vote { tid; yes; cohort = me }))
                  ~on_done:ignore)
          in
          Api.log_commit api
            (encode_event (Vote_cast { tid; yes = true; cohort = me }))
            ~on_rejected:(fun () -> cast false)
            ~on_done:(fun () ->
              Api.send api ~dest:src
                (encode_wmsg (Vote { tid; yes = true; cohort = me }))
                ~on_done:ignore)
      | Ok (Decision { tid; _ }) ->
          Api.log_commit api (encode_event (Finish { tid })) ~on_done:ignore
      | _ -> ())

let partition_get node key =
  let described = Blockplane.App.describe (Unit_node.app node) in
  List.find_map
    (fun entry ->
      match String.split_on_char '=' entry with
      | [ k; v ] when String.equal k key -> Some v
      | _ -> None)
    (String.split_on_char ';' described)
