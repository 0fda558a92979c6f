open Bp_sim

module Int_map = Map.Make (Int)

type txn_state = {
  txn : Record.transmission;
  mutable sigs : (string * string) list;
  mutable geo : (int * (string * string) list) list option;
      (* None = still waiting (only when fg > 0) *)
  mutable ready : bool; (* sigs (+ geo) complete, eligible to transmit *)
}

type counters = {
  sent : int;
  acks : int;
  retries : int;
  backoff : int;
  demoted : int;
}

type t = {
  node : Unit_node.t;
  dest : int;
  dest_nodes : Addr.t array;
  geo_proofs :
    (pos:int -> on_ready:((int * (string * string) list) list -> unit) -> unit)
    option;
  needed_sigs : int;
  (* intra-unit sign requests: the host unit's aux tag and its other nodes *)
  aux_tag : string;
  sign_peers : Addr.t array;
  mutable pending : txn_state Int_map.t; (* comm_seq -> state *)
  mutable ready_count : int; (* pending entries with [ready = true] *)
  mutable highest : int;
  mutable acked : int;
  mutable target : int; (* destination node rotation index *)
  mutable enabled : bool;
  mutable sent_count : int;
  mutable ack_count : int;
  mutable ack_subs : (int -> unit) list;
  mutable demoted_receivers : int list;
  mutable demoted_count : int;
  (* capped exponential backoff over the retry tick, with deterministic
     jitter — the periodic event stream itself never changes, only
     whether a tick acts, so default runs are byte-identical to a
     backoff-free daemon *)
  mutable tick : int;
  mutable backoff : int; (* ticks between fires; 1 = every tick *)
  mutable next_fire_tick : int;
  mutable last_fire_acked : int;
  mutable retry_count : int;
}

let acked t = t.acked
let set_enabled t b = t.enabled <- b

let counters t =
  {
    sent = t.sent_count;
    acks = t.ack_count;
    retries = t.retry_count;
    backoff = t.backoff;
    demoted = t.demoted_count;
  }

let on_acked t f = t.ack_subs <- f :: t.ack_subs

(* ---------- destination rotation with demotion ---------- *)

(* Advance to the next destination node, skipping demoted ones. The seed
   behaviour — plain [target + 1] — meant a byzantine or crashed target
   was re-offered the whole pending set every |dest_nodes| retries; a
   demoted index stays skipped until every node has been demoted (then
   the epoch resets: blaming everyone means the fault was elsewhere). *)
let advance_target t =
  let n = Array.length t.dest_nodes in
  if List.length t.demoted_receivers >= n then t.demoted_receivers <- [];
  let rec next k fuel =
    if fuel = 0 then k
    else if List.mem (k mod n) t.demoted_receivers then
      next (k + 1) (fuel - 1)
    else k
  in
  t.target <- next (t.target + 1) n

let demote_receiver t idx =
  if not (List.mem idx t.demoted_receivers) then begin
    t.demoted_count <- t.demoted_count + 1;
    t.demoted_receivers <- idx :: t.demoted_receivers
  end

(* ---------- fi+1 signature bundles ---------- *)

let transmit t st =
  if t.enabled then begin
    let target = t.dest_nodes.(t.target mod Array.length t.dest_nodes) in
    t.sent_count <- t.sent_count + 1;
    Unit_node.send_aux t.node ~dst:target
      (Proto.Transmit
         {
           transmission =
             {
               st.txn with
               Record.proofs = st.sigs;
               geo_proofs = Option.value ~default:[] st.geo;
             };
         })
  end

let maybe_ready t st =
  if
    (not st.ready)
    && List.length st.sigs >= t.needed_sigs
    && (t.geo_proofs = None || st.geo <> None)
  then begin
    st.ready <- true;
    t.ready_count <- t.ready_count + 1;
    transmit t st
  end

let request_signatures t st =
  (* Our own attestation is immediate; fi more come from the unit round. *)
  (match Unit_node.sign_transmission t.node st.txn with
  | Some pair -> st.sigs <- [ pair ]
  | None -> ());
  (* Unit peers all live in one datacenter, so the fan-out shares one aux
     tag — encode the sign request once for the whole round. *)
  Bp_net.Transport.broadcast (Unit_node.transport t.node) ~dsts:t.sign_peers
    ~tag:t.aux_tag
    (Proto.encode (Proto.Sign_request { transmission = st.txn }));
  maybe_ready t st

(* ---------- tracking and acknowledgements ---------- *)

let track t ~pos (comm : Record.communication) =
  if comm.Record.dest = t.dest && comm.Record.comm_seq > t.acked
     && not (Int_map.mem comm.Record.comm_seq t.pending)
  then begin
    let txn =
      {
        Record.src = Unit_node.participant t.node;
        tdest = t.dest;
        tcomm_seq = comm.Record.comm_seq;
        log_pos = pos;
        tpayload = comm.Record.payload;
        proofs = [];
        geo_proofs = [];
      }
    in
    let st = { txn; sigs = []; geo = None; ready = false } in
    t.pending <- Int_map.add comm.Record.comm_seq st t.pending;
    t.highest <- Stdlib.max t.highest comm.Record.comm_seq;
    (match t.geo_proofs with
    | None -> ()
    | Some wait ->
        wait ~pos ~on_ready:(fun bundles ->
            st.geo <- Some bundles;
            maybe_ready t st));
    request_signatures t st
  end

let on_sign_response t ~dest ~comm_seq ~identity ~signature =
  if dest = t.dest then
    match Int_map.find_opt comm_seq t.pending with
    | Some st when not st.ready ->
        if not (List.mem_assoc identity st.sigs) then begin
          (* Validate before counting: a byzantine node could send junk. *)
          let vcache = Unit_node.vcache t.node in
          let statement =
            Record.transmission_statement
              ~digest:(Bp_crypto.Verify_cache.digest vcache)
              st.txn
          in
          if
            (* Single-signature batch: the same probe/verify/record
               path as the bundles, so the daemon's verdicts share the
               per-node cache. *)
            Bp_crypto.Verify_batch.verify_one ~cache:vcache
              (Bp_crypto.Verify_batch.global ())
              ~signer:identity ~msg:statement ~signature
          then begin
            st.sigs <- (identity, signature) :: st.sigs;
            maybe_ready t st
          end
        end
    | _ -> ()

let on_ack t ~from_participant ~comm_seq =
  (* The upper guard is load-bearing: a byzantine destination node could
     forge a cumulative ack for a comm_seq this daemon never shipped,
     silently wiping the pending set and stalling delivery for good. An
     ack is only honoured up to what we have actually seen committed. *)
  if from_participant = t.dest && comm_seq > t.acked && comm_seq <= t.highest
  then begin
    t.acked <- comm_seq;
    t.ack_count <- t.ack_count + 1;
    let acked, rest = Int_map.partition (fun seq _ -> seq <= comm_seq) t.pending in
    Int_map.iter
      (fun _ st -> if st.ready then t.ready_count <- t.ready_count - 1)
      acked;
    t.pending <- rest;
    (* Progress vindicates the current cadence: snap back to retrying
       every tick. *)
    t.backoff <- 1;
    t.next_fire_tick <- 0;
    List.iter (fun f -> f comm_seq) t.ack_subs
  end

(* ---------- retry cadence ---------- *)

(* Deterministic jitter: when backed off, stagger daemons that share a
   tick phase by a pair-and-round parity — pure arithmetic, no RNG. *)
let jitter t =
  if t.backoff = 1 then 0
  else
    (((Unit_node.participant t.node * 131) + t.dest) * 131 + t.retry_count)
    land 1

let retry t =
  (* Re-send everything ready but unacknowledged, in order — a crashed
     or malicious receiver node is bypassed; the receiver deduplicates. *)
  (* O(1) via the counter — this runs on every retry tick, and a scan
     of [pending] grows with the unacknowledged backlog. *)
  let any_ready = t.ready_count > 0 in
  if any_ready then begin
    advance_target t;
    Int_map.iter (fun _ st -> if st.ready then transmit t st) t.pending
  end
  else
    (* Signatures still missing (lagging peers): ask again. *)
    Int_map.iter (fun _ st -> request_signatures t st) t.pending

let on_tick t =
  t.tick <- t.tick + 1;
  if t.enabled && not (Int_map.is_empty t.pending) && t.tick >= t.next_fire_tick
  then begin
    let stalled = t.acked <= t.last_fire_acked in
    (* Fruitless fire: nothing delivered since the last one. Back off
       (capped) so a dead destination is not hammered every tick, and
       demote the node that burned the attempt; any ack resets the
       cadence. A progressing daemon keeps backoff = 1 and this gate
       never skips a tick. *)
    if stalled && t.retry_count > 0 then begin
      t.backoff <- Stdlib.min (t.backoff * 2) 8;
      demote_receiver t (t.target mod Array.length t.dest_nodes)
    end;
    t.last_fire_acked <- t.acked;
    t.retry_count <- t.retry_count + 1;
    t.next_fire_tick <- t.tick + t.backoff + jitter t;
    retry t
  end

let create ~node ~dest ~dest_nodes ?geo_proofs ?(start_after = -1) () =
  let net = Bp_net.Transport.network (Unit_node.transport node) in
  let t =
    {
      node;
      dest;
      dest_nodes;
      geo_proofs;
      needed_sigs = Unit_node.fi node + 1;
      aux_tag = Proto.aux_tag (Unit_node.addr node).Addr.dc;
      sign_peers =
        (let self = Unit_node.addr node in
         Array.of_list
           (List.filter
              (fun peer -> not (Addr.equal peer self))
              (Array.to_list (Unit_node.peers node))));
      pending = Int_map.empty;
      ready_count = 0;
      highest = start_after;
      acked = start_after;
      target = 0;
      enabled = true;
      sent_count = 0;
      ack_count = 0;
      ack_subs = [];
      demoted_receivers = [];
      demoted_count = 0;
      tick = 0;
      backoff = 1;
      next_fire_tick = 0;
      last_fire_acked = start_after;
      retry_count = 0;
    }
  in
  (* Backlog: scan the host node's log from the start (Algorithm 2's
     pointer p starts at the first entry). *)
  Bp_storage.Log_store.iter_from (Unit_node.log node) 0 (fun entry ->
      match Record.decode entry.Bp_storage.Log_store.payload with
      | Ok (Record.Comm comm) ->
          track t ~pos:entry.Bp_storage.Log_store.index comm
      | _ -> ());
  (* Follow new executions. *)
  Unit_node.add_executed_hook node (fun ~pos record ->
      match record with Record.Comm comm -> track t ~pos comm | _ -> ());
  (* Responses (signatures, acks) arrive on the unit's aux tag. *)
  Unit_node.add_aux_listener node (fun ~src:_ msg ->
      match msg with
      | Proto.Sign_response { dest; comm_seq; identity; signature } when dest = t.dest ->
          on_sign_response t ~dest ~comm_seq ~identity ~signature;
          true
      | Proto.Ack { from_participant; comm_seq } when from_participant = t.dest ->
          on_ack t ~from_participant ~comm_seq;
          true
      | _ -> false);
  (* Retry cadence scales with the destination RTT. The timer stream is
     unconditional; backoff decides per tick whether to act, so enabling
     it never perturbs the simulation's event schedule. *)
  let rtt = Topology.rtt (Network.topology net) (Unit_node.addr node).Addr.dc dest in
  ignore
    (Engine.periodic (Network.engine net)
       ~every:(Time.add (Time.scale rtt 3.0) (Time.of_ms 20.0))
       (fun () -> on_tick t));
  t
