open Bp_sim

let log_src = Logs.Src.create "bp.core" ~doc:"Blockplane unit node"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Int_map = Map.Make (Int)

type pending_txn = { txn : Record.transmission; requester : Addr.t }

type t = {
  pbft_cfg : Bp_pbft.Config.t;
  participant : int;
  n_participants : int;
  fg : int;
  addr : Addr.t;
  transport : Bp_net.Transport.t;
  aux_tags : string array; (* Proto.aux_tag of each unit, built once *)
  identity_prefixes : string array; (* Proto.identity_prefix of each unit *)
  vcache : Bp_crypto.Verify_cache.t;
  mutable replica : Bp_pbft.Replica.t option; (* set right after create *)
  client : Bp_pbft.Client.t;
  log : Bp_storage.Log_store.t;
  app : App.instance;
  last_received : int array;
  (* receive path, by source participant: out-of-order transmissions
     awaiting commit, and the comm_seq in flight through PBFT *)
  pending : pending_txn Int_map.t array;
  submitting : int option array;
  mutable executed_hooks : (pos:int -> Record.t -> unit) list;
  mutable aux_listeners : (src:Addr.t -> Proto.t -> unit) list;
  mirror_index : string Proto.Mirror_tbl.t; (* mirror_key -> value digest *)
  mutable byz_sign_anything : bool;
  mutable byz_drop_comm : bool;
}

let addr t = t.addr
let peers t = t.pbft_cfg.Bp_pbft.Config.nodes
let transport t = t.transport
let replica t =
  match t.replica with
  | Some r -> r
  | None ->
      (* [create] installs the replica before returning the node. *)
      invalid_arg "Unit_node.replica: node not fully constructed"
let participant t = t.participant
let pipeline_occupancy t = Bp_pbft.Replica.pipeline_occupancy (replica t)
let log t = t.log
let app t = t.app
let app_digest t = App.digest t.app
let identity t = Bp_pbft.Config.identity t.pbft_cfg t.addr
let last_received t ~src = t.last_received.(src)
let set_byzantine_sign_anything t b = t.byz_sign_anything <- b
let set_byzantine_drop_comm t b = t.byz_drop_comm <- b

let add_executed_hook t f = t.executed_hooks <- f :: t.executed_hooks
let add_aux_listener t f = t.aux_listeners <- f :: t.aux_listeners

let follow_comms t f =
  Bp_storage.Log_store.iter_from t.log 0 (fun entry ->
      match Record.decode entry.Bp_storage.Log_store.payload with
      | Ok (Record.Comm comm) -> f ~pos:entry.Bp_storage.Log_store.index comm
      | _ -> ());
  add_executed_hook t (fun ~pos record ->
      match record with Record.Comm comm -> f ~pos comm | _ -> ())

let mirror_digest t ~owner ~pos =
  Proto.Mirror_tbl.find_opt t.mirror_index (Proto.mirror_key ~owner ~pos)

let vcache t = t.vcache

let sign_mirror t ~owner ~pos ~digest =
  match mirror_digest t ~owner ~pos with
  | Some d when String.equal d digest ->
      Some
        (Bp_crypto.Verify_cache.sign t.vcache ~signer:(identity t)
           (Proto.mirror_statement ~owner ~pos ~digest))
  | _ -> None

(* ---------- built-in receive verification (§IV-C) ---------- *)

(* Whether [p], read off the wire, names a unit of the deployment: the
   screen before a participant id indexes any per-source array. *)
let is_participant t p = p >= 0 && p < t.n_participants

(* A per-unit string from its table; a unit number outside the
   deployment (a byzantine claim) gets a fresh one. *)
let per_unit table make u =
  if u >= 0 && u < Array.length table then table.(u) else make u

(* Whether [identity] names one of unit [participant]'s own nodes: the
   screen every fi+1 bundle passes a signature through before counting
   it. Pure string work, so it runs before any crypto. *)
let attests t ~participant identity =
  let prefix = per_unit t.identity_prefixes Proto.identity_prefix participant in
  String.length identity > String.length prefix
  && String.starts_with ~prefix identity

(* The two statements a transmission record's proofs attest: the source
   unit's bundle signs the first, each geo mirror bundle the second
   (§V). Both hash through the node's digest memo. *)
let transmission_statement t tr =
  Record.transmission_statement
    ~digest:(Bp_crypto.Verify_cache.digest t.vcache)
    tr

let mirror_statement t (tr : Record.transmission) =
  Proto.mirror_statement ~owner:tr.Record.src ~pos:tr.Record.log_pos
    ~digest:
      (Bp_crypto.Verify_cache.digest t.vcache
         (Record.encode (Record.comm_image tr)))

(* The bundle's signatures by members of the attesting unit, as
   verification jobs over [statement]. *)
let bundle_jobs t ~from_participant ~statement sigs =
  List.filter_map
    (fun (identity, signature) ->
      if attests t ~participant:from_participant identity then
        Some { Bp_crypto.Verify_cache.signer = identity; msg = statement; signature }
      else None)
    sigs

(* One counted batch for the whole fi+1 bundle instead of a
   per-signature loop. The walk over verdicts reproduces the sequential
   counting rule exactly: an identity only enters [seen] once a
   signature of its verifies, so several (even byzantine-duplicated)
   copies count at most once. *)
let valid_sig_bundle t ~from_participant ~statement ~needed sigs =
  let jobs = bundle_jobs t ~from_participant ~statement sigs in
  let verdicts = Bp_crypto.Verify_cache.verify_batch t.vcache jobs in
  (* [seen] holds at most one bundle's signers, so a list is the
     cheapest set. *)
  let rec count seen n jobs verdicts =
    match (jobs, verdicts) with
    | [], [] -> n
    | { Bp_crypto.Verify_cache.signer; _ } :: jobs, verdict :: verdicts ->
        if verdict && not (List.exists (String.equal signer) seen) then
          count (signer :: seen) (n + 1) jobs verdicts
        else count seen n jobs verdicts
    | [], _ :: _ | _ :: _, [] ->
        invalid_arg "Unit_node.valid_sig_bundle: one verdict per signature"
  in
  count [] 0 jobs verdicts >= needed

let fi t = t.pbft_cfg.Bp_pbft.Config.f

let verify_transmission t (tr : Record.transmission) =
  tr.Record.tdest = t.participant
  && is_participant t tr.Record.src
  && tr.Record.src <> t.participant
  (* (1) fi+1 signatures from the source unit over the statement *)
  && valid_sig_bundle t ~from_participant:tr.Record.src
       ~statement:(transmission_statement t tr)
       ~needed:(fi t + 1) tr.Record.proofs
  (* (2) not received before and (3) no gap: strictly the next one *)
  && tr.Record.tcomm_seq = t.last_received.(tr.Record.src) + 1
  (* (4) with fg > 0, proofs from fg other participants (§V) *)
  && begin
       if t.fg = 0 then true
       else begin
         let valid_bundles =
           List.filter
             (fun (p, sigs) ->
               p <> tr.Record.src
               && valid_sig_bundle t ~from_participant:p
                    ~statement:(mirror_statement t tr)
                    ~needed:(fi t + 1) sigs)
             tr.Record.geo_proofs
         in
         List.length valid_bundles >= t.fg
       end
     end

(* Read markers (§VI-A linearizable reads) are middleware-internal
   commit records: they order reads but never reach the user protocol. *)
let is_read_marker payload = String.starts_with ~prefix:"_read_marker:" payload

(* What the user protocol sees of a committed record — shared between
   live execution and WAL replay so recovery is exact. [hash] is the
   SHA-256 the app digests with: the node's memo lookup live, a plain
   hash on replay — the same digests either way. *)
let apply_to_app ~hash app record =
  match record with
  | Record.Mirrored _ -> ()
  | Record.Commit payload when is_read_marker payload -> ()
  | Record.Commit _ | Record.Comm _ | Record.Recv _ -> App.apply app ~hash record

(* [log-commit] makes the Local Log itself durable (§III-C). *)
let wal_image t =
  Bp_storage.Wal.image
    (List.init (Bp_storage.Log_store.length t.log)
       (Bp_storage.Log_store.payload_exn t.log))

let replay ~image ~app =
  let payloads, discarded = Bp_storage.Wal.recover image in
  let count = ref 0 in
  List.iter
    (fun encoded ->
      match Record.decode encoded with
      | Ok record ->
          apply_to_app ~hash:Bp_crypto.Sha256.digest app record;
          incr count
      | Error _ -> ())
    payloads;
  (!count, if discarded = 0 then Ok () else Error `Corrupt_tail)

(* A request's op decoded once and memoized in the request itself: the
   pre-screen, the batch-cut screen, the prepared check, the pipelined
   re-verify, the prefetch and execution all read that [Record.t].
   Delivery hints hand every node of the unit the client's own request
   record, so one decode serves them all; the last of the unit's
   replicas to execute the request drops the memo. A dropped request
   takes its memo with it. *)
type Bp_pbft.Msg.decoded += Decoded_record of (Record.t, string) result

let record_of (r : Bp_pbft.Msg.request) =
  match r.Bp_pbft.Msg.decoded with
  | Decoded_record decoded -> decoded
  | _ ->
      let decoded = Record.decode r.Bp_pbft.Msg.op in
      r.Bp_pbft.Msg.decoded <- Decoded_record decoded;
      decoded

let verifier t (r : Bp_pbft.Msg.request) =
  match record_of r with
  | Error _ -> false
  | Ok record -> (
      Record.kind_to_int (Record.kind_of record) = r.Bp_pbft.Msg.kind
      &&
      match record with
      | Record.Recv tr -> verify_transmission t tr && App.verify t.app record
      | Record.Mirrored _ ->
          (* Known hole (ROADMAP item 3): any node can forge a mirror entry. *)
          (true [@bplint.allow "R10-accept"])
      | Record.Commit payload when is_read_marker payload ->
          (true [@bplint.allow "R10-accept"]) (* orders a read, applies nothing *)
      | Record.Commit _ | Record.Comm _ -> App.verify t.app record)

(* ---------- verification prefetch ---------- *)

(* The replica calls this when a pre-prepare lands for a slot that is
   not next to execute. It verifies, as one batch, every signature check
   [verifier] will run for the batch's transmission records: the fi+1
   source-unit bundles and, with fg > 0, the geo mirror bundles. The
   verdicts land in the per-node cache, so the bundle checks above are
   then all hits when the slot is judged — verdicts identical with or
   without the prefetch. Only crypto: the stateful screens (sequence
   gaps, duplicate detection, application verify) stay in [verifier],
   judged at the head of the execution order as always. *)
let preverify t batch =
  let jobs =
    List.concat_map
      (fun (r : Bp_pbft.Msg.request) ->
        match record_of r with
        | Ok (Record.Recv tr) when tr.Record.tdest = t.participant ->
            let main =
              bundle_jobs t ~from_participant:tr.Record.src
                ~statement:(transmission_statement t tr)
                tr.Record.proofs
            in
            let geo =
              if t.fg = 0 then []
              else
                List.concat_map
                  (fun (p, sigs) ->
                    if p = tr.Record.src then []
                    else
                      bundle_jobs t ~from_participant:p
                        ~statement:(mirror_statement t tr)
                        sigs)
                  tr.Record.geo_proofs
            in
            main @ geo
        | _ -> [])
      batch
  in
  match jobs with
  | [] -> ()
  | _ :: _ ->
      ignore (Bp_crypto.Verify_cache.verify_batch t.vcache jobs)

(* ---------- execution ---------- *)

(* Participants map 1:1 to datacenters, so an address's unit — and hence
   its aux tag — is its [dc] component. *)
let send_aux t ~dst msg =
  Bp_net.Transport.send t.transport ~dst
    ~tag:(per_unit t.aux_tags Proto.aux_tag dst.Addr.dc)
    (Proto.encode msg)

let ack_pending t src =
  (* Acknowledge and drop every pending transmission at or below the
     in-order frontier. Cumulative acks. *)
  let frontier = t.last_received.(src) in
  let acked, rest = Int_map.partition (fun seq _ -> seq <= frontier) t.pending.(src) in
  t.pending.(src) <- rest;
  Int_map.iter
    (fun _ { requester; _ } ->
      send_aux t ~dst:requester
        (Proto.Ack { from_participant = t.participant; comm_seq = frontier }))
    acked;
  match t.submitting.(src) with
  | Some seq when seq <= frontier -> t.submitting.(src) <- None
  | _ -> ()

let rec pump_receive t src =
  if Option.is_none t.submitting.(src) then begin
    let next = t.last_received.(src) + 1 in
    match Int_map.find_opt next t.pending.(src) with
    | None -> ()
    | Some { txn; _ } ->
        t.submitting.(src) <- Some next;
        Bp_pbft.Client.submit t.client
          ~kind:(Record.kind_to_int Record.Received)
          (Record.encode (Record.Recv txn))
          ~on_result:(fun result ->
            (match t.submitting.(src) with
            | Some seq when seq = next -> t.submitting.(src) <- None
            | _ -> ());
            if Option.is_none (int_of_string_opt result) then
              (* Rejected (bad proofs / duplicate): drop it for good — an
                 honest daemon will retransmit a valid copy if one exists. *)
              t.pending.(src) <- Int_map.remove next t.pending.(src);
            pump_receive t src)
  end

let submit_record t record ~on_result =
  Bp_pbft.Client.submit t.client
    ~kind:(Record.kind_to_int (Record.kind_of record))
    (Record.encode record) ~on_result

let execute t ~seq:_ (r : Bp_pbft.Msg.request) =
  match record_of r with
  | Error msg ->
      (* Cannot happen for records that passed verification. *)
      Log.err (fun m -> m "%s: executing undecodable record: %s" (Addr.to_string t.addr) msg);
      "error"
  | Ok record ->
      (* The op's digest, memoized when this node checked the request's
         signature (and hashed at most once per unit, through the
         request's own memo); the log chain and the app reuse it. *)
      let hash = Bp_crypto.Verify_cache.lookup_digest t.vcache in
      let op = r.Bp_pbft.Msg.op in
      let payload_digest =
        Bp_crypto.Verify_cache.lookup_digest_with t.vcache r.Bp_pbft.Msg.sha op
      in
      let entry = Bp_storage.Log_store.append t.log ~payload_digest op in
      let pos = entry.Bp_storage.Log_store.index in
      apply_to_app ~hash t.app record;
      (match record with
      | Record.Recv tr ->
          let src = tr.Record.src in
          if tr.Record.tcomm_seq = t.last_received.(src) + 1 then
            t.last_received.(src) <- tr.Record.tcomm_seq;
          ack_pending t src;
          pump_receive t src
      | Record.Mirrored { owner; opos; ovalue } ->
          let key = Proto.mirror_key ~owner ~pos:opos in
          if key >= 0 then
            Proto.Mirror_tbl.replace t.mirror_index key
              (Bp_crypto.Verify_cache.digest t.vcache ovalue)
      | Record.Commit _ | Record.Comm _ -> ());
      List.iter (fun hook -> hook ~pos record) t.executed_hooks;
      string_of_int pos

(* ---------- auxiliary message handling ---------- *)

let sign_transmission t (tr : Record.transmission) =
  let ok =
    t.byz_sign_anything
    ||
    match Bp_storage.Log_store.get t.log tr.Record.log_pos with
    | None -> false
    | Some entry -> (
        match Record.decode entry.Bp_storage.Log_store.payload with
        | Ok (Record.Comm { dest; comm_seq; payload }) ->
            dest = tr.Record.tdest
            && comm_seq = tr.Record.tcomm_seq
            && String.equal payload tr.Record.tpayload
        | _ -> false)
  in
  if ok then
    Some
      ( identity t,
        Bp_crypto.Verify_cache.sign t.vcache ~signer:(identity t)
          (transmission_statement t tr) )
  else None

let handle_sign_request t ~src (tr : Record.transmission) =
  match sign_transmission t tr with
  | None -> ()
  | Some (identity, signature) ->
      send_aux t ~dst:src
        (Proto.Sign_response
           {
             dest = tr.Record.tdest;
             comm_seq = tr.Record.tcomm_seq;
             identity;
             signature;
           })

let handle_transmit t ~src (tr : Record.transmission) =
  let s = tr.Record.src and seq = tr.Record.tcomm_seq in
  if tr.Record.tdest = t.participant && is_participant t s then
    if seq <= t.last_received.(s) then
      (* Duplicate: cumulative ack so the sender advances. *)
      send_aux t ~dst:src
        (Proto.Ack { from_participant = t.participant; comm_seq = t.last_received.(s) })
    else begin
      if not (Int_map.mem seq t.pending.(s)) then
        t.pending.(s) <- Int_map.add seq { txn = tr; requester = src } t.pending.(s);
      pump_receive t s
    end

(* Every listener sees the message and ignores what is not its own. A
   top-level walk: dispatch allocates no closure per message. *)
let rec notify ~src msg = function
  | [] -> ()
  | listener :: rest ->
      listener ~src msg;
      notify ~src msg rest

let on_aux t ~src payload =
  match Proto.decode payload with
  | Error e -> Log.debug (fun m -> m "%s: bad aux message: %s" (Addr.to_string t.addr) e)
  | Ok msg -> (
      match msg with
      (* The withholding knob mutes this node's communication-layer
         duties only (signing, receiving) — its PBFT replica
         stays honest, as a byzantine-but-careful node's would. *)
      | Proto.Sign_request { transmission } ->
          if not t.byz_drop_comm then handle_sign_request t ~src transmission
      | Proto.Transmit { transmission } ->
          if not t.byz_drop_comm then handle_transmit t ~src transmission
      | Proto.Reserve_query { src = from } ->
          if is_participant t from then
            send_aux t ~dst:src
              (Proto.Reserve_reply { src = from; last = t.last_received.(from) })
      | Proto.Read_query { pos } ->
          let payload =
            Option.map
              (fun e -> e.Bp_storage.Log_store.payload)
              (Bp_storage.Log_store.get t.log pos)
          in
          send_aux t ~dst:src (Proto.Read_reply { pos; payload })
      | Proto.Sign_response _ | Proto.Ack _ | Proto.Reserve_reply _
      | Proto.Mirror_request _ | Proto.Mirror_proof _
      | Proto.Mirror_sign_request _ | Proto.Mirror_sign_response _
      | Proto.Read_reply _ ->
          notify ~src msg t.aux_listeners)

let create ~network ~pbft_cfg ~participant ~n_participants ~node_idx ~fg
    ~vcache ~app () =
  let addr = pbft_cfg.Bp_pbft.Config.nodes.(node_idx) in
  let transport = Bp_net.Transport.create network addr in
  let client = Bp_pbft.Client.create ~cache:vcache transport pbft_cfg in
  let t =
    {
      pbft_cfg;
      participant;
      n_participants;
      fg;
      addr;
      transport;
      aux_tags = Array.init n_participants Proto.aux_tag;
      identity_prefixes = Array.init n_participants Proto.identity_prefix;
      vcache;
      replica = None;
      client;
      log = Bp_storage.Log_store.create ();
      app;
      last_received = Array.make n_participants (-1);
      pending = Array.make n_participants Int_map.empty;
      submitting = Array.make n_participants None;
      executed_hooks = [];
      aux_listeners = [];
      mirror_index = Proto.Mirror_tbl.create 64;
      byz_sign_anything = false;
      byz_drop_comm = false;
    }
  in
  let replica =
    Bp_pbft.Replica.create ~cache:vcache transport pbft_cfg ~id:node_idx
      ~execute:(fun ~seq r -> execute t ~seq r)
      ()
  in
  Bp_pbft.Replica.set_verifier replica (fun r -> verifier t r);
  Bp_pbft.Replica.set_preverifier replica (fun batch -> preverify t batch);
  t.replica <- Some replica;
  Bp_net.Transport.set_handler transport
    ~tag:(per_unit t.aux_tags Proto.aux_tag participant)
    (fun ~src ~hint:_ payload -> on_aux t ~src payload);
  t
