open Bp_sim

module Int_map = Map.Make (Int)

(* ---------- deterministic pairing schedule ---------- *)

module Schedule = struct
  (* Pure arithmetic hash — no RNG, no global state: the schedule is a
     function of the per-source chain state alone, so runs are
     bit-reproducible at any --jobs and every node computes the same
     rotation. *)
  let fold_string h s =
    String.fold_left
      (fun h c -> ((h * 131) + Char.code c) land 0x3FFFFFFFFFFFFF)
      h s

  let pair ~src ~dest ~head_seq ~chain ~attempt ~n_senders ~n_receivers =
    let h0 = (((src * 8191) + dest) * 524287) + (head_seq land 0xFFFFFF) in
    let h = fold_string (h0 land max_int) chain in
    let h = (h lxor (h lsr 17)) land max_int in
    let s = (((h mod n_senders) + attempt) mod n_senders + n_senders) mod n_senders in
    (* The receiver takes an extra step each time the sender completes a
       full rotation: with a shared stride the pairing degenerates to the
       n pairs of one diagonal and a skip-guided pick loop (demotions,
       distinctness) cycles the same few pairs until its fuel runs out.
       The staggered stride sweeps all [n_senders * n_receivers] pairs. *)
    let r =
      ((((h / 1048573) mod n_receivers) + attempt + (attempt / n_senders))
       mod n_receivers
      + n_receivers)
      mod n_receivers
    in
    (s, r)
end

(* ---------- agent ---------- *)

type host = {
  participant : int;
  n_participants : int;
  node_idx : int;
  fi : int;
  identity : string;
  addr : Addr.t;
  peers : Addr.t array;
  peer_addr : int -> int -> Addr.t;
  digest : string -> string;
  sign : string -> string;
  verify : signer:string -> msg:string -> signature:string -> bool;
  send : dst:Addr.t -> Proto.t -> unit;
  last_received : int -> int;
  enqueue_recv : Record.transmission -> requester:Addr.t -> unit;
}

(* A coverage candidate: one claimed statement at a sequence number, with
   the distinct source-unit signers whose verified chain heads contain
   it. Byzantine signers can introduce at most fi forks, none of which
   can reach fi+1 distinct signers without an honest one — and honest
   nodes all sign the single committed chain. *)
type candidate = {
  c_log_pos : int;
  mutable c_payload : string option;
      (* filled by the wave's payload-carrying probe; digest-stub probes
         add signers without bytes *)
  c_stmt : string; (* statement digest *)
  mutable c_signers : string list; (* distinct identities, sorted *)
}

type src_state = {
  mutable committed_chain : string Int_map.t; (* seq -> chain digest *)
  mutable candidates : candidate list Int_map.t; (* seq -> forks *)
  mutable s_reply : Addr.t option;
      (* the source daemon's ack address, learned from direct probes *)
  mutable s_owed_heads : unit Int_map.t;
      (* heads this node was {e directly} probed at: it owes the daemon
         an ack for exactly those sequence numbers, even when the signer
         completing their coverage arrives by dispersal. Every other
         record enqueues silently — acks are cumulative, so the wave
         owners of the highest committed head vouch for the whole prefix
         and the WAN ack fan-in stays at the wave size, not the unit or
         backlog size. *)
  mutable s_submit : unit Int_map.t;
      (* records whose bytes arrived aboard a {e direct} probe: this node
         is the designated consensus submitter for exactly those — one
         node per record on the clean path, so the receiving unit opens
         one slot per record instead of one per holder. *)
}

type out_state = {
  mutable out_records : (int * string) Int_map.t; (* seq -> pos, payload *)
  mutable out_chain : string Int_map.t; (* seq -> chain digest *)
  mutable out_stmts : string Int_map.t; (* seq -> statement digest *)
  mutable out_frontier : int; (* highest contiguously chained seq *)
  mutable deferred : (int * int * int * int * Addr.t) list;
      (* probe requests whose head outruns our committed frontier —
         (base, head, payload_from, receiver, reply_to) — replayed when
         the chain catches up *)
}

type stats = {
  probes_sent : int;
  probes_rx : int;
  disperses_rx : int;
  sig_verifies : int;
  rejected : int;
}

type t = {
  host : host;
  incoming : (int, src_state) Hashtbl.t; (* by source participant *)
  outgoing : (int, out_state) Hashtbl.t; (* by destination participant *)
  mutable probes_sent : int;
  mutable probes_rx : int;
  mutable disperses_rx : int;
  mutable sig_verifies : int;
  mutable rejected : int;
  mutable byz_equivocate : bool;
}

(* Largest window a single probe may carry; a bigger backlog converges
   over successive probes (each ack advances the base). *)
let max_window = 64

let create host =
  {
    host;
    incoming = Hashtbl.create 8;
    outgoing = Hashtbl.create 8;
    probes_sent = 0;
    probes_rx = 0;
    disperses_rx = 0;
    sig_verifies = 0;
    rejected = 0;
    byz_equivocate = false;
  }

let stats t =
  {
    probes_sent = t.probes_sent;
    probes_rx = t.probes_rx;
    disperses_rx = t.disperses_rx;
    sig_verifies = t.sig_verifies;
    rejected = t.rejected;
  }

let set_byzantine_equivocate t b = t.byz_equivocate <- b

let src_state t src =
  match Hashtbl.find_opt t.incoming src with
  | Some s -> s
  | None ->
      let s =
        {
          committed_chain = Int_map.empty;
          candidates = Int_map.empty;
          s_reply = None;
          s_owed_heads = Int_map.empty;
          s_submit = Int_map.empty;
        }
      in
      Hashtbl.replace t.incoming src s;
      s

let out_state t dest =
  match Hashtbl.find_opt t.outgoing dest with
  | Some o -> o
  | None ->
      let o =
        {
          out_records = Int_map.empty;
          out_chain = Int_map.empty;
          out_stmts = Int_map.empty;
          out_frontier = -1;
          deferred = [];
        }
      in
      Hashtbl.replace t.outgoing dest o;
      o

let committed_chain_at s seq =
  if seq = -1 then Some Record.chain_genesis
  else Int_map.find_opt seq s.committed_chain

let out_chain_at o seq =
  if seq = -1 then Some Record.chain_genesis else Int_map.find_opt seq o.out_chain

let chain_head t ~dest ~seq = out_chain_at (out_state t dest) seq

let stmt_digest t (tr : Record.transmission) =
  t.host.digest (Record.transmission_statement ~digest:t.host.digest tr)

(* ---------- sender side: own outbound chain index ---------- *)

(* Build and send one probe over (base, min head out_frontier], shipping
   payloads only above [payload_from] (statement digests below — the
   chain head recomputes from either). Assumes the request was already
   screened. *)
let send_probe t ~dest o ~base ~head ~payload_from ~receiver ~reply_to =
  let head = Stdlib.min head o.out_frontier in
  let head = Stdlib.min head (base + max_window) in
  if head > base then begin
    let window =
      List.init (head - base) (fun k ->
          let seq = base + 1 + k in
          match Int_map.find_opt seq o.out_records with
          | Some (pos, payload) ->
              if seq > payload_from then (seq, pos, payload)
              else
                let stmt =
                  match Int_map.find_opt seq o.out_stmts with
                  | Some s -> s
                  | None -> "" (* unreachable: seq <= out_frontier *)
                in
                (seq, pos, stmt)
          | None -> (seq, -1, "") (* unreachable: seq <= out_frontier *))
    in
    match out_chain_at o head with
    | None -> ()
    | Some head_digest ->
        let head_digest =
          if t.byz_equivocate then t.host.digest ("equivocation:" ^ head_digest)
          else head_digest
        in
        let statement =
          Record.chain_statement ~src:t.host.participant ~dest ~head_seq:head
            ~head:head_digest
        in
        let probe =
          {
            Proto.p_src = t.host.participant;
            p_dest = dest;
            p_base = base;
            p_payload_from = payload_from;
            p_window = window;
            p_signer = t.host.identity;
            p_signature = t.host.sign statement;
            p_reply_to = reply_to;
          }
        in
        let n_dest = Array.length t.host.peers in
        t.probes_sent <- t.probes_sent + 1;
        t.host.send
          ~dst:(t.host.peer_addr dest (((receiver mod n_dest) + n_dest) mod n_dest))
          (Proto.Probe probe)
  end

let extend_out_chain t dest o =
  let continue = ref true in
  while !continue do
    let next = o.out_frontier + 1 in
    match Int_map.find_opt next o.out_records with
    | None -> continue := false
    | Some (pos, payload) ->
        let tr =
          {
            Record.src = t.host.participant;
            tdest = dest;
            tcomm_seq = next;
            log_pos = pos;
            tpayload = payload;
            proofs = [];
            geo_proofs = [];
          }
        in
        let prev =
          match out_chain_at o o.out_frontier with
          | Some c -> c
          | None -> Record.chain_genesis (* unreachable: frontier is chained *)
        in
        let stmt = stmt_digest t tr in
        let link = Record.chain_step ~digest:t.host.digest ~prev ~stmt_digest:stmt in
        o.out_chain <- Int_map.add next link o.out_chain;
        o.out_stmts <- Int_map.add next stmt o.out_stmts;
        o.out_frontier <- next
  done;
  (* Replay probe requests that were waiting for our chain to commit up
     to their head — a solicitation races the sender's own execution of
     the record, and dropping it would cost a full daemon retry tick. *)
  let matured, still =
    List.partition (fun (_, head, _, _, _) -> head <= o.out_frontier) o.deferred
  in
  o.deferred <- still;
  List.iter
    (fun (base, head, payload_from, receiver, reply_to) ->
      send_probe t ~dest o ~base ~head ~payload_from ~receiver ~reply_to)
    matured

(* ---------- receiver side: committed chain + coverage ---------- *)

let retire_candidates s frontier =
  let _, above = Int_map.partition (fun seq _ -> seq <= frontier) s.candidates in
  s.candidates <- above;
  let _, owed = Int_map.partition (fun seq _ -> seq <= frontier) s.s_owed_heads in
  s.s_owed_heads <- owed;
  let _, submit = Int_map.partition (fun seq _ -> seq <= frontier) s.s_submit in
  s.s_submit <- submit

let on_committed t ~pos record =
  match record with
  | Record.Comm { dest; comm_seq; payload } ->
      let o = out_state t dest in
      o.out_records <- Int_map.add comm_seq (pos, payload) o.out_records;
      extend_out_chain t dest o
  | Record.Recv tr when tr.Record.tdest = t.host.participant ->
      let s = src_state t tr.Record.src in
      let seq = tr.Record.tcomm_seq in
      (match committed_chain_at s (seq - 1) with
      | Some prev when not (Int_map.mem seq s.committed_chain) ->
          let link =
            Record.chain_step ~digest:t.host.digest ~prev
              ~stmt_digest:(stmt_digest t (Record.strip_proofs tr))
          in
          s.committed_chain <- Int_map.add seq link s.committed_chain
      | _ -> ());
      retire_candidates s (t.host.last_received tr.Record.src)
  | Record.Recv _ | Record.Commit _ | Record.Mirrored _ -> ()

let has_prefix ~prefix s =
  let plen = String.length prefix in
  String.length s > plen && String.equal (String.sub s 0 plen) prefix

let insert_signer c identity =
  let rec go = function
    | [] -> [ identity ]
    | x :: rest as l ->
        let cmp = String.compare identity x in
        if cmp = 0 then l else if cmp < 0 then identity :: l else x :: go rest
  in
  c.c_signers <- go c.c_signers

let add_candidate s ~seq ~log_pos ~payload ~stmt ~signer =
  let existing = Option.value ~default:[] (Int_map.find_opt seq s.candidates) in
  match List.find_opt (fun c -> String.equal c.c_stmt stmt) existing with
  | Some c -> (
      insert_signer c signer;
      match (c.c_payload, payload) with
      | None, Some _ -> c.c_payload <- payload
      | (None | Some _), _ -> ())
  | None ->
      let c =
        { c_log_pos = log_pos; c_payload = payload; c_stmt = stmt; c_signers = [ signer ] }
      in
      insert_signer c signer;
      s.candidates <- Int_map.add seq (c :: existing) s.candidates

let covered_candidate t cands stmt =
  List.find_opt
    (fun c ->
      String.equal c.c_stmt stmt && List.length c.c_signers >= t.host.fi + 1)
    cands

let covered t (tr : Record.transmission) =
  match Int_map.find_opt tr.Record.tcomm_seq (src_state t tr.Record.src).candidates with
  | None -> false
  | Some cands ->
      Option.is_some
        (covered_candidate t cands (stmt_digest t (Record.strip_proofs tr)))

(* Enqueue every record of the window that just reached fi+1 distinct
   signers into the node's receive path. The pending set deduplicates;
   consensus still re-checks coverage via [covered] at every replica. *)
let enqueue_ready t s ~src ~reply_for entries =
  (* Submission duty is scoped tighter than ack duty: only the node
     whose direct probe carried this record's bytes hands it to the
     consensus pump — one node per record. Dispersal-only nodes keep their
     candidates, answering [covered] when the replica verifies the
     proposal, but submitting from all 3fi+1 of them would put ~n
     duplicate requests through the receiving unit's consensus per
     record (and, under the modeled verification cost, charge for every
     one). Liveness: coverage spreads only through honest direct
     receivers' dispersals, and recovery re-ships register duty for the
     whole stalled window, so a coverable record always has an honest
     exact-duty owner. *)
  let duty seq = Int_map.mem seq s.s_submit in
  List.iter
    (fun (seq, _log_pos, _payload, stmt) ->
      if seq > t.host.last_received src && duty seq then
        match Int_map.find_opt seq s.candidates with
        | None -> ()
        | Some cands -> (
            match covered_candidate t cands stmt with
            | None -> ()
            | Some c -> (
                match c.c_payload with
                | None ->
                    (* Covered by digest-stub probes alone: the wave's
                       payload probe is lost or late; the daemon's retry
                       re-ships bytes. *)
                    ()
                | Some payload ->
                    t.host.enqueue_recv
                      {
                        Record.src;
                        tdest = t.host.participant;
                        tcomm_seq = seq;
                        log_pos = c.c_log_pos;
                        tpayload = payload;
                        proofs = [];
                        geo_proofs = [];
                      }
                      ~requester:(reply_for seq))))
    entries

(* Validate the probe's shape and recompute the chain head from our own
   committed anchor over the probe's window. Returns the per-entry
   statement digests and the implied head. *)
let fold_window t ~src ~base ~payload_from window =
  let rec go expected prev acc = function
    | [] -> Some (prev, List.rev acc)
    | (seq, log_pos, body) :: rest ->
        if seq <> expected then None
        else begin
          let stmt, payload =
            if seq > payload_from then begin
              let tr =
                {
                  Record.src;
                  tdest = t.host.participant;
                  tcomm_seq = seq;
                  log_pos;
                  tpayload = body;
                  proofs = [];
                  geo_proofs = [];
                }
              in
              (stmt_digest t tr, Some body)
            end
            else (body, None) (* digest stub: the body is the statement *)
          in
          let link = Record.chain_step ~digest:t.host.digest ~prev ~stmt_digest:stmt in
          go (seq + 1) link ((seq, log_pos, payload, stmt) :: acc) rest
        end
  in
  match committed_chain_at (src_state t src) base with
  | None -> None
  | Some anchor -> go (base + 1) anchor [] window

let handle_probe t (p : Proto.probe) ~disperse =
  let {
    Proto.p_src;
    p_dest;
    p_base;
    p_payload_from;
    p_window;
    p_signer;
    p_signature;
    p_reply_to;
  } =
    p
  in
  if
    p_dest = t.host.participant
    && p_src >= 0
    && p_src < t.host.n_participants
    && p_src <> t.host.participant
    && has_prefix ~prefix:(Proto.identity_prefix p_src) p_signer
    && List.length p_window <= max_window
  then begin
    let frontier = t.host.last_received p_src in
    let head_seq =
      List.fold_left (fun _ (seq, _, _) -> seq) p_base p_window
    in
    if head_seq <= frontier then begin
      (* Nothing new — cumulative ack so the daemon's frontier advances
         past a duplicate or stale probe. Only the directly probed node
         answers: peers acking every dispersal would turn the one WAN
         ack per delivery into a unit-sized fan-in. *)
      if disperse then
        t.host.send ~dst:p_reply_to
          (Proto.Ack { from_participant = t.host.participant; comm_seq = frontier })
    end
    else begin
      match fold_window t ~src:p_src ~base:p_base ~payload_from:p_payload_from p_window with
      | None -> t.rejected <- t.rejected + 1 (* gap, fork anchor, malformed *)
      | Some (head, entries) ->
          let statement =
            Record.chain_statement ~src:p_src ~dest:p_dest ~head_seq ~head
          in
          t.sig_verifies <- t.sig_verifies + 1;
          if
            t.host.verify ~signer:p_signer ~msg:statement ~signature:p_signature
          then begin
            let s = src_state t p_src in
            if disperse then begin
              s.s_reply <- Some p_reply_to;
              (* Being probed directly creates duty: an ack owed for the
                 probe's head, and submission duty for every record whose
                 bytes this probe carried. A normal wave's payload probe
                 carries one new record, so duty lands on one node per
                 record; a recovery re-ship carries the whole stalled
                 window, so its receiver adopts the stuck range — that is
                 what keeps exact-duty submission live when the original
                 owners were byzantine or lossy. *)
              s.s_owed_heads <- Int_map.add head_seq () s.s_owed_heads;
              List.iter
                (fun (seq, _log_pos, payload, _stmt) ->
                  match payload with
                  | Some _ -> s.s_submit <- Int_map.add seq () s.s_submit
                  | None -> ())
                entries
            end;
            (* One verified chain-head signature vouches for every
               statement of the window: the signer joins each entry's
               candidate. *)
            List.iter
              (fun (seq, log_pos, payload, stmt) ->
                if seq > frontier then
                  add_candidate s ~seq ~log_pos ~payload ~stmt ~signer:p_signer)
              entries;
            if disperse then begin
              let self = t.host.addr in
              Array.iter
                (fun peer ->
                  if not (Addr.equal peer self) then
                    t.host.send ~dst:peer (Proto.Disperse p))
                t.host.peers
            end;
            (* Only the nodes directly probed at a head carry the ack
               duty for that head: coverage often completes on a
               dispersal — each direct probe alone is one signer short
               of fi+1 — and the ack must still flow, but from the wave
               owners alone. Acks are cumulative, so the owners of the
               newest committed head cover every lower record and the
               WAN fan-in stays at the wave size. *)
            let reply_for seq =
              if Int_map.mem seq s.s_owed_heads then
                Option.value ~default:t.host.addr s.s_reply
              else t.host.addr
            in
            enqueue_ready t s ~src:p_src ~reply_for entries
          end
          else t.rejected <- t.rejected + 1
    end
  end
  else t.rejected <- t.rejected + 1

let on_probe t p =
  t.probes_rx <- t.probes_rx + 1;
  handle_probe t p ~disperse:true

let on_disperse t p =
  t.disperses_rx <- t.disperses_rx + 1;
  handle_probe t p ~disperse:false

(* ---------- sender side: delegated probe construction ---------- *)

let max_deferred = 8

let on_probe_request t ~dest ~base ~head ~payload_from ~receiver ~reply_to =
  if dest >= 0 && dest < t.host.n_participants && dest <> t.host.participant
     && base >= -1 && head > base
     && head - base <= 4 * max_window
  then begin
    let o = out_state t dest in
    if head > o.out_frontier then begin
      (* The solicitation raced our own execution of the record: stash
         it (bounded, so junk requests from a byzantine daemon cannot
         grow state) and replay once the chain commits that far. *)
      let same (b, h, pf, r, rt) =
        b = base && h = head && pf = payload_from && r = receiver
        && Addr.equal rt reply_to
      in
      if not (List.exists same o.deferred) then begin
        let kept =
          match o.deferred with
          | _oldest :: rest when List.length o.deferred >= max_deferred -> rest
          | l -> l
        in
        o.deferred <- kept @ [ (base, head, payload_from, receiver, reply_to) ]
      end
    end;
    (* Serve whatever prefix of the window is already committed — prompt
       partial coverage beats waiting for the full head. *)
    if o.out_frontier > base then
      send_probe t ~dest o ~base ~head ~payload_from ~receiver ~reply_to
  end
