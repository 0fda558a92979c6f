open Bp_sim

let log_src = Logs.Src.create "bp.shard" ~doc:"Blockplane shard router"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ---------- shard map ---------- *)

type policy = Hash | Range of string array

type map = { n_shards : int; pol : policy }

let make ?(policy = Hash) ~shards () =
  if shards < 1 then invalid_arg "Shard.make: shards must be positive";
  (match policy with
  | Hash -> ()
  | Range splits ->
      if Array.length splits <> shards - 1 then
        invalid_arg "Shard.make: Range needs shards - 1 split points";
      Array.iteri
        (fun i s ->
          if String.length s = 0 then invalid_arg "Shard.make: empty split point";
          if i > 0 && String.compare splits.(i - 1) s >= 0 then
            invalid_arg "Shard.make: split points must be strictly ascending")
        splits);
  { n_shards = shards; pol = policy }

let shards m = m.n_shards

let shard_of_key m key =
  match m.pol with
  | Hash ->
      if m.n_shards = 1 then 0
      else Int32.to_int (Bp_crypto.Crc32.string key) land 0x3fffffff mod m.n_shards
  | Range splits ->
      (* Binary search for the first split point strictly above [key]. *)
      let lo = ref 0 and hi = ref (Array.length splits) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if String.compare key splits.(mid) < 0 then hi := mid else lo := mid + 1
      done;
      !lo

let shards_of_keys m keys =
  List.sort_uniq compare (List.map (shard_of_key m) keys)

let coordinator = function
  | [] -> invalid_arg "Shard.coordinator: empty participant set"
  | parts -> List.fold_left Int.min max_int parts

let key_for m ~shard ~salt =
  if shard < 0 || shard >= m.n_shards then invalid_arg "Shard.key_for: bad shard";
  match m.pol with
  | Range splits ->
      let base = if shard = 0 then "" else splits.(shard - 1) in
      let key = Printf.sprintf "%s\x00%08x" base salt in
      if shard_of_key m key <> shard then
        invalid_arg "Shard.key_for: shard unreachable under this range map";
      key
  | Hash ->
      (* Bounded deterministic probing: each candidate hits the target
         shard with probability 1/N, so the bound is astronomically
         unlikely to be reached for any practical shard count. *)
      let attempts = 64 * m.n_shards in
      let rec probe i =
        if i >= attempts then
          invalid_arg "Shard.key_for: probing bound exceeded"
        else
          let key = Printf.sprintf "k%08x-%x" salt i in
          if shard_of_key m key = shard then key else probe (i + 1)
      in
      probe 0

(* ---------- codec: prefixed payloads carrying (key, op) lists ---------- *)

open Bp_codec

let encode_ops e ops =
  Wire.list e
    (fun (key, op) ->
      Wire.string e key;
      Wire.string e op)
    ops

let decode_ops d =
  Wire.read_list d (fun d ->
      let key = Wire.read_string d in
      let op = Wire.read_string d in
      (key, op))

(* [String.starts_with] without its per-call closure: every record a
   node verifies or applies is checked for both prefixes. *)
let rec same_from prefix s i =
  i = String.length prefix || (Char.equal prefix.[i] s.[i] && same_from prefix s (i + 1))

let has_prefix prefix s = String.length s >= String.length prefix && same_from prefix s 0

(* The body after [prefix], which [payload] is known to start with;
   [Wire.decode_sub] rejects trailing bytes. *)
let decode_body ~prefix payload reader =
  let off = String.length prefix in
  Wire.decode_sub payload ~off ~len:(String.length payload - off) reader

(* ---------- commit steps (ride inside log-commit records) ---------- *)

type xs =
  | Xs_prepare of { txid : string; ops : (string * string) list }
  | Xs_apply of { txid : string; ops : (string * string) list }
  | Xs_decide of { txid : string; commit : bool }

let xs_prefix = "__xs:"

let xs_payload xs =
  xs_prefix
  ^ Wire.encode (fun e ->
        match xs with
        | Xs_prepare { txid; ops } ->
            Wire.u8 e 0;
            Wire.string e txid;
            encode_ops e ops
        | Xs_apply { txid; ops } ->
            Wire.u8 e 1;
            Wire.string e txid;
            encode_ops e ops
        | Xs_decide { txid; commit } ->
            Wire.u8 e 2;
            Wire.string e txid;
            Wire.bool e commit)

let is_xs_payload payload = has_prefix xs_prefix payload

let xs_of_payload payload =
  decode_body ~prefix:xs_prefix payload (fun d ->
      match Wire.read_u8 d with
      | 0 ->
          let txid = Wire.read_string d in
          let ops = decode_ops d in
          Xs_prepare { txid; ops }
      | 1 ->
          let txid = Wire.read_string d in
          let ops = decode_ops d in
          Xs_apply { txid; ops }
      | 2 ->
          let txid = Wire.read_string d in
          let commit = Wire.read_bool d in
          Xs_decide { txid; commit }
      | n -> raise (Wire.Malformed (Printf.sprintf "xs tag %d" n)))

(* ---------- 2PC wire messages (ride inside communication records) ---------- *)

type msg =
  | Prepare of { txid : string; coord : int; ops : (string * string) list }
  | Vote of { txid : string; yes : bool }
  | Decide of { txid : string; commit : bool }
  | Applied of { txid : string }

let msg_prefix = "__xsm:"

let encode_msg msg =
  msg_prefix
  ^ Wire.encode (fun e ->
        match msg with
        | Prepare { txid; coord; ops } ->
            Wire.u8 e 0;
            Wire.string e txid;
            Wire.varint e coord;
            encode_ops e ops
        | Vote { txid; yes } ->
            Wire.u8 e 1;
            Wire.string e txid;
            Wire.bool e yes
        | Decide { txid; commit } ->
            Wire.u8 e 2;
            Wire.string e txid;
            Wire.bool e commit
        | Applied { txid } ->
            Wire.u8 e 3;
            Wire.string e txid)

let decode_msg payload =
  if not (has_prefix msg_prefix payload) then None
  else
    Result.to_option
      (decode_body ~prefix:msg_prefix payload (fun d ->
           match Wire.read_u8 d with
           | 0 ->
               let txid = Wire.read_string d in
               let coord = Wire.read_varint d in
               let ops = decode_ops d in
               Prepare { txid; coord; ops }
           | 1 ->
               let txid = Wire.read_string d in
               let yes = Wire.read_bool d in
               Vote { txid; yes }
           | 2 ->
               let txid = Wire.read_string d in
               let commit = Wire.read_bool d in
               Decide { txid; commit }
           | 3 -> Applied { txid = Wire.read_string d }
           | n -> raise (Wire.Malformed (Printf.sprintf "xsm tag %d" n))))

(* ---------- the app wrapper: steps and sends judged by evidence ---------- *)

(* What one unit's executed records show about one cross-shard txid: its
   own [Commit] steps, the [Prepare]s its [Comm] records sent, and the
   2PC messages its [Recv] records delivered. Nothing else makes a step
   or a 2PC send legal. An entry outlives its decide: a send that the
   evidence owes may still be submitted after it (a late YES after the
   coordinator's abort), and a rejected send would leave a hole in its
   channel's sequence. *)
type evidence = {
  mutable prepared : bool; (* this shard's Xs_prepare committed *)
  mutable slice : (string * string) list option; (* staged until decided *)
  mutable prepared_to : int list; (* shards this unit sent a Prepare to *)
  mutable prepare_from : int option; (* source of the delivered Prepare *)
  mutable offer : (string * string) list option; (* its ops, until prepared *)
  mutable yes_from : int list; (* sources of delivered YES votes *)
  mutable told : bool option; (* first Decide delivered from [prepare_from] *)
  mutable decided : bool option; (* this unit's committed Xs_decide *)
}

(* The app wrapper of [instance]: it judges the commit steps and the
   2PC sends by the evidence table, stages prepared slices, and hands
   every other record to the inner app unchanged. *)
module Steps (A : App.S) = struct
  type state = {
    inner : A.state;
    evidence : (string, evidence) Hashtbl.t;
    mutable staged : int; (* entries holding a slice *)
  }

  let create ~participant ~n_participants =
    {
      inner = A.create ~participant ~n_participants;
      evidence = Hashtbl.create 8;
      staged = 0;
    }

  let evidence_of st txid =
    match Hashtbl.find_opt st.evidence txid with
    | Some ev -> ev
    | None ->
        let ev =
          { prepared = false; slice = None; prepared_to = []; prepare_from = None;
            offer = None; yes_from = []; told = None; decided = None }
        in
        Hashtbl.replace st.evidence txid ev;
        ev

  (* Did the txid's delivered Prepare come from shard [s]? *)
  let prepared_by ev s =
    match ev.prepare_from with Some src -> Int.equal src s | None -> false

  (* [rule] on the txid's evidence; false when there is none. *)
  let holds st txid rule =
    match Hashtbl.find_opt st.evidence txid with
    | Some ev -> rule ev
    | None -> false

  (* The role comes from what was delivered, not from what was sent. A
     unit with a delivered Prepare and none sent follows the first
     decision its coordinator delivered. Any other unit that prepared or
     sent a Prepare may abort; a commit needs its own staged prepare and
     a delivered YES from each shard it prepared (Zhao's certificate of
     votes). A unit decides a txid once. *)
  let decide_legal ev ~commit =
    Option.is_none ev.decided
    &&
    match (ev.prepare_from, ev.prepared_to) with
    | Some _, [] -> Option.equal Bool.equal ev.told (Some commit)
    | _, [] -> (not commit) && ev.prepared
    | _, prepared_to ->
        (not commit) || (ev.prepared && List.for_all (fun s -> List.mem s ev.yes_from) prepared_to)

  let verify_op st (_key, op) = A.verify st.inner (Record.Commit op)

  let same_ops = List.equal (fun (k, op) (k', op') -> String.equal k k' && String.equal op op')

  (* Prepare/apply: every enclosed op must be a transition the app would
     accept — a rejected prepare is this shard's NO vote. A txid prepares
     once, a participant only the ops its Prepare delivered, and a
     contested txid (a Prepare both sent and delivered) never. *)
  let verify_step st = function
    | Xs_prepare { txid; ops } ->
        (not (List.is_empty ops))
        && List.for_all (verify_op st) ops
        && not
             (holds st txid (fun ev ->
                  ev.prepared
                  || Option.is_some ev.prepare_from
                     && not (List.is_empty ev.prepared_to && Option.equal same_ops ev.offer (Some ops))))
    | Xs_apply { ops; _ } ->
        (not (List.is_empty ops)) && List.for_all (verify_op st) ops
    | Xs_decide { txid; commit } -> holds st txid (decide_legal ~commit)

  (* A YES, a decision or an applied-ack is legal only while the
     evidence owes it, and a unit that takes part in a txid sends no
     Prepare for it. Otherwise a Prepare and a NO are the router's
     inputs; the inner app judges them like any other send. *)
  let verify_send st ~dest msg record =
    match msg with
    | Some (Vote { txid; yes = true }) ->
        holds st txid (fun ev -> ev.prepared && prepared_by ev dest)
    | Some (Decide { txid; commit }) ->
        holds st txid (fun ev ->
            Option.equal Bool.equal ev.decided (Some commit)
            && List.mem dest ev.prepared_to)
    | Some (Applied { txid }) ->
        holds st txid (fun ev ->
            Option.equal Bool.equal ev.decided (Some true) && prepared_by ev dest)
    | Some (Prepare { txid; _ })
      when holds st txid (fun ev -> Option.is_some ev.prepare_from) -> false
    | Some (Vote { yes = false; _ } | Prepare _) | None -> A.verify st.inner record

  let verify st = function
    | Record.Commit payload when is_xs_payload payload -> (
        match xs_of_payload payload with
        | Ok step -> verify_step st step
        | Error _ -> false)
    | Record.Comm { Record.dest; payload; _ } as record ->
        verify_send st ~dest (decode_msg payload) record
    | record -> A.verify st.inner record

  let apply_ops st ~hash ops =
    List.iter (fun (_key, op) -> A.apply st.inner ~hash (Record.Commit op)) ops

  let apply_step st ~hash = function
    | Xs_prepare { txid; ops } ->
        let ev = evidence_of st txid in
        ev.prepared <- true;
        ev.offer <- None;
        if Option.is_none ev.slice then st.staged <- st.staged + 1;
        ev.slice <- Some ops
    | Xs_apply { txid = _; ops } -> apply_ops st ~hash ops
    | Xs_decide { txid; commit } -> (
        let ev = evidence_of st txid in
        ev.decided <- Some commit;
        match ev.slice with
        | Some ops ->
            if commit then apply_ops st ~hash ops;
            ev.slice <- None;
            st.staged <- st.staged - 1
        | None -> ())

  let add s l = if List.mem s l then l else s :: l

  (* A delivered message's evidence. Only the first Prepare counts, and
     only before this shard's own prepare; only the first decision from
     its source counts. *)
  let note_delivered st ~src = function
    | Some (Prepare { txid; ops; _ }) ->
        let ev = evidence_of st txid in
        if Option.is_none ev.prepare_from && not ev.prepared then begin
          ev.prepare_from <- Some src;
          ev.offer <- Some ops
        end
    | Some (Vote { txid; yes = true }) ->
        let ev = evidence_of st txid in
        ev.yes_from <- add src ev.yes_from
    | Some (Decide { txid; commit }) ->
        let ev = evidence_of st txid in
        if prepared_by ev src && Option.is_none ev.told then ev.told <- Some commit
    | Some (Vote { yes = false; _ } | Applied _) | None -> ()

  let apply st ~hash = function
    | Record.Commit payload when is_xs_payload payload ->
        Result.iter (apply_step st ~hash) (xs_of_payload payload)
    | record ->
        (match record with
        | Record.Comm { Record.dest; payload; _ } -> (
            match decode_msg payload with
            | Some (Prepare { txid; _ }) ->
                let ev = evidence_of st txid in
                ev.prepared_to <- add dest ev.prepared_to
            | Some (Vote _ | Decide _ | Applied _) | None -> ())
        | Record.Recv { Record.src; tpayload; _ } ->
            note_delivered st ~src (decode_msg tpayload)
        | Record.Commit _ | Record.Mirrored _ -> ());
        A.apply st.inner ~hash record

  (* The inner app's digest and every evidence entry, in txid order. With
     no entry it is the inner app's digest alone, so a unit that never
     saw a cross-shard transaction replays to the same digest as a plain
     copy of the app. *)
  let digest st =
    let ints l = String.concat "," (List.map string_of_int l) in
    let opt f = Option.fold ~none:"-" ~some:f in
    let ops l = String.concat ";" (List.map (fun (k, op) -> Printf.sprintf "%S=%S" k op) l) in
    let line txid ev =
      Printf.sprintf "\n%S %b %s [%s] %s %s [%s] %s %s" txid ev.prepared (opt ops ev.slice)
        (ints ev.prepared_to) (opt string_of_int ev.prepare_from) (opt ops ev.offer)
        (ints ev.yes_from) (opt Bool.to_string ev.told) (opt Bool.to_string ev.decided)
    in
    match
      (Hashtbl.fold (fun txid ev acc -> (txid, line txid ev) :: acc) st.evidence []
      [@bplint.allow "R2-hiter"] (* sorted below *))
    with
    | [] -> A.digest st.inner
    | lines ->
        Bp_crypto.Sha256.digest_list
          (A.digest st.inner
          :: List.map snd (List.sort (fun (a, _) (b, _) -> String.compare a b) lines))

  let describe st = A.describe st.inner
end

let instance (module A : App.S) ~participant ~n_participants =
  let module W = Steps (A) in
  let st = W.create ~participant ~n_participants in
  (App.Instance ((module W), st), fun () -> st.W.staged)

(* ---------- router ---------- *)

type stats = {
  single_shard : int;
  cross_shard : int;
  committed : int;
  aborted : int;
  prepares_rejected : int;
  timeouts : int;
}

type pending = {
  p_txid : string;
  coord : int;
  parts : int list; (* participating shards, sorted ascending *)
  mutable votes : (int * bool) list; (* participant -> YES/NO *)
  mutable decided : bool;
  mutable coord_applied : bool; (* coordinator's decide record committed *)
  mutable applied : int list; (* non-coordinator participants that applied *)
  mutable timer : Engine.timer option;
  k_done : unit -> unit;
  k_aborted : unit -> unit;
}

type t = {
  map : map;
  engine : Engine.t;
  api : int -> Api.t;
  txns : (string, pending) Hashtbl.t;
  mutable next_txid : int;
  mutable single_shard : int;
  mutable cross_shard : int;
  mutable committed : int;
  mutable aborted : int;
  mutable prepares_rejected : int;
  mutable timeouts : int;
}

(* How long a coordinator waits for votes and applied-acks before
   downgrading a cross-shard transaction to abort (simulated time). *)
let prepare_timeout = Time.of_ms 2000.0

let stats t =
  {
    single_shard = t.single_shard;
    cross_shard = t.cross_shard;
    committed = t.committed;
    aborted = t.aborted;
    prepares_rejected = t.prepares_rejected;
    timeouts = t.timeouts;
  }

let send_msg t ~from ~dest msg =
  Api.send (t.api from) ~dest (encode_msg msg) ~on_done:ignore

(* The transaction is finished once the coordinator's decide has
   committed (its own shard applied) and every other participant has
   acknowledged applying theirs. *)
let check_done t pending =
  if
    pending.decided && pending.coord_applied
    && List.for_all
         (fun p -> p = pending.coord || List.mem p pending.applied)
         pending.parts
  then begin
    Hashtbl.remove t.txns pending.p_txid;
    t.committed <- t.committed + 1;
    pending.k_done ()
  end

let decide t pending ~commit =
  if not pending.decided then begin
    pending.decided <- true;
    Option.iter Engine.cancel pending.timer;
    let coord = pending.coord in
    let others = List.filter (fun p -> p <> coord) pending.parts in
    Api.log_commit (t.api coord)
      (xs_payload (Xs_decide { txid = pending.p_txid; commit }))
      ~on_done:(fun () ->
        List.iter
          (fun p ->
            send_msg t ~from:coord ~dest:p
              (Decide { txid = pending.p_txid; commit }))
          others;
        if commit then begin
          pending.coord_applied <- true;
          check_done t pending
        end
        else begin
          (* Abort completes at the coordinator's committed downgrade;
             participants drop their staged slices when the transmitted
             decide commits in their own logs. *)
          Hashtbl.remove t.txns pending.p_txid;
          t.aborted <- t.aborted + 1;
          pending.k_aborted ()
        end)
  end

let record_vote t pending ~participant ~yes =
  if (not pending.decided) && not (List.mem_assoc participant pending.votes)
  then begin
    pending.votes <- (participant, yes) :: pending.votes;
    if not yes then begin
      t.prepares_rejected <- t.prepares_rejected + 1;
      decide t pending ~commit:false
    end
    else if List.length pending.votes = List.length pending.parts then
      decide t pending ~commit:true
  end

let on_message t ~self ~src payload =
  match decode_msg payload with
  | None -> ()
  | Some (Prepare { txid; coord = _; ops }) ->
      (* Commit the prepare to this shard's own log: the verification
         verdict IS the vote, sent back to the Prepare's source (not to
         the [coord] it names) as an ordinary message. *)
      let vote yes = send_msg t ~from:self ~dest:src (Vote { txid; yes }) in
      Api.log_commit (t.api self)
        (xs_payload (Xs_prepare { txid; ops }))
        ~on_done:(fun () -> vote true)
        ~on_rejected:(fun () -> vote false)
  | Some (Vote { txid; yes }) -> (
      match Hashtbl.find_opt t.txns txid with
      | Some pending when pending.coord = self ->
          record_vote t pending ~participant:src ~yes
      | Some _ | None -> ())
  | Some (Decide { txid; commit }) ->
      (* Commit the decision in this shard's own log — only that commit
         applies (or drops) the staged slice. A commit needs the
         coordinator's completion barrier, so acknowledge it; an abort
         is already final once the coordinator logged its downgrade. *)
      Api.log_commit (t.api self)
        (xs_payload (Xs_decide { txid; commit }))
        ~on_done:(fun () ->
          if commit then send_msg t ~from:self ~dest:src (Applied { txid }))
  | Some (Applied { txid }) -> (
      match Hashtbl.find_opt t.txns txid with
      | Some pending when pending.coord = self && pending.decided ->
          if not (List.mem src pending.applied) then begin
            pending.applied <- src :: pending.applied;
            check_done t pending
          end
      | Some _ | None -> ())

let router ~map ~engine ~api =
  let t =
    {
      map;
      engine;
      api;
      txns = Hashtbl.create 64;
      next_txid = 0;
      single_shard = 0;
      cross_shard = 0;
      committed = 0;
      aborted = 0;
      prepares_rejected = 0;
      timeouts = 0;
    }
  in
  (* One shard: no cross-shard traffic can exist; install nothing so the
     deployment stays byte-identical to the unsharded seed. *)
  if map.n_shards > 1 then
    for p = 0 to map.n_shards - 1 do
      Api.on_receive (api p) (fun ~src payload ->
          ignore (Api.receive (api p) ~src);
          on_message t ~self:p ~src payload)
    done;
  t

(* Group ops by owning shard, preserving submission order inside each
   shard's slice. Association list keyed by shard, kept sorted. *)
let slices map ops =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (key, op) ->
      let s = shard_of_key map key in
      let slice = Option.value ~default:[] (Hashtbl.find_opt tbl s) in
      Hashtbl.replace tbl s ((key, op) :: slice))
    ops;
  let parts = shards_of_keys map (List.map fst ops) in
  List.map (fun s -> (s, List.rev (Hashtbl.find tbl s))) parts

let submit t ?(on_aborted = ignore) ~on_done ops =
  if List.is_empty ops then invalid_arg "Shard.submit: empty transaction";
  match slices t.map ops with
  | [ (s, [ (_key, op) ]) ] ->
      (* The seed path: one op, one shard, one raw log-commit. *)
      t.single_shard <- t.single_shard + 1;
      Api.log_commit (t.api s) op ~on_done ~on_rejected:on_aborted
  | [ (s, slice) ] ->
      (* Several ops, one shard: a single atomic record on that unit. *)
      t.single_shard <- t.single_shard + 1;
      let txid = Printf.sprintf "x%d" t.next_txid in
      t.next_txid <- t.next_txid + 1;
      Api.log_commit (t.api s)
        (xs_payload (Xs_apply { txid; ops = slice }))
        ~on_done ~on_rejected:on_aborted
  | parts ->
      t.cross_shard <- t.cross_shard + 1;
      let txid = Printf.sprintf "x%d" t.next_txid in
      t.next_txid <- t.next_txid + 1;
      let shard_ids = List.map fst parts in
      let coord = coordinator shard_ids in
      let pending =
        {
          p_txid = txid;
          coord;
          parts = shard_ids;
          votes = [];
          decided = false;
          coord_applied = false;
          applied = [];
          timer = None;
          k_done = on_done;
          k_aborted = on_aborted;
        }
      in
      Hashtbl.replace t.txns txid pending;
      pending.timer <-
        Some
          (Engine.schedule t.engine ~after:prepare_timeout (fun () ->
               if Hashtbl.mem t.txns txid && not pending.decided then begin
                 t.timeouts <- t.timeouts + 1;
                 Log.debug (fun m -> m "txn %s: prepare timeout, aborting" txid);
                 decide t pending ~commit:false
               end));
      List.iter
        (fun (s, slice) ->
          if s = coord then
            (* The coordinator's own prepare doubles as its vote. *)
            Api.log_commit (t.api coord)
              (xs_payload (Xs_prepare { txid; ops = slice }))
              ~on_done:(fun () -> record_vote t pending ~participant:coord ~yes:true)
              ~on_rejected:(fun () ->
                record_vote t pending ~participant:coord ~yes:false)
          else
            send_msg t ~from:coord ~dest:s (Prepare { txid; coord; ops = slice }))
        parts
