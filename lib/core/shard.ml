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

let is_xs_payload payload = String.starts_with ~prefix:xs_prefix payload

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

(* The app wrapper of [instance]: it judges and stages the commit steps
   and hands every other record to the inner app unchanged. *)
module Steps (A : App.S) = struct
  type state = { inner : A.state; staged : (string, (string * string) list) Hashtbl.t }

  let create ~participant ~n_participants =
    { inner = A.create ~participant ~n_participants; staged = Hashtbl.create 8 }

  let verify_op st (_key, op) = A.verify st.inner (Record.Commit op)

  (* Prepare/apply: every enclosed op must be a transition the app would
     accept — a rejected prepare is this shard's NO vote. Decides carry
     no ops; a decide for an unknown txid applies nothing, so it is
     always safe to order. *)
  let verify st = function
    | Record.Commit payload when is_xs_payload payload -> (
        match xs_of_payload payload with
        | Ok (Xs_prepare { ops; _ } | Xs_apply { ops; _ }) ->
            (not (List.is_empty ops)) && List.for_all (verify_op st) ops
        | Ok (Xs_decide _) ->
            (* Known hole (ROADMAP item 2): a forged commit decide applies. *)
            (true [@bplint.allow "R10-accept"])
        | Error _ -> false)
    | record -> A.verify st.inner record

  let apply_ops st ~hash ops =
    List.iter (fun (_key, op) -> A.apply st.inner ~hash (Record.Commit op)) ops

  let apply st ~hash = function
    | Record.Commit payload when is_xs_payload payload -> (
        match xs_of_payload payload with
        | Ok (Xs_prepare { txid; ops }) -> Hashtbl.replace st.staged txid ops
        | Ok (Xs_apply { txid = _; ops }) -> apply_ops st ~hash ops
        | Ok (Xs_decide { txid; commit }) ->
            (match Hashtbl.find_opt st.staged txid with
            | Some ops when commit -> apply_ops st ~hash ops
            | Some _ | None -> ());
            Hashtbl.remove st.staged txid
        | Error _ -> ())
    | record -> A.apply st.inner ~hash record

  let digest st = A.digest st.inner
  let describe st = A.describe st.inner
end

let instance (module A : App.S) ~participant ~n_participants =
  let module W = Steps (A) in
  let st = W.create ~participant ~n_participants in
  (App.Instance ((module W), st), fun () -> Hashtbl.length st.W.staged)

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
  if not (String.starts_with ~prefix:msg_prefix payload) then None
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

let cancel_timer pending =
  (match pending.timer with Some timer -> Engine.cancel timer | None -> ());
  pending.timer <- None

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
    cancel_timer pending;
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

(* Participant-side handling of a prepare that arrived over the wire:
   commit it to this shard's own log; the verification verdict IS the
   vote, transmitted back to the coordinator as an ordinary message. *)
let on_prepare t ~self ~txid ~coord ~ops =
  let vote yes =
    send_msg t ~from:self ~dest:coord (Vote { txid; yes })
  in
  Api.log_commit (t.api self)
    (xs_payload (Xs_prepare { txid; ops }))
    ~on_done:(fun () -> vote true)
    ~on_rejected:(fun () -> vote false)

let on_message t ~self ~src payload =
  match decode_msg payload with
  | None -> ()
  | Some (Prepare { txid; coord; ops }) ->
      (* Trust [coord = src] only as far as routing the vote back; the
         prepare itself still has to pass this unit's verification. *)
      ignore coord;
      on_prepare t ~self ~txid ~coord:src ~ops
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
