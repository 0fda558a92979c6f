open Bp_sim

module Int_map = Map.Make (Int)

type txn_state = {
  txn : Record.transmission;
  mutable sigs : (string * string) list;
  mutable geo : (int * (string * string) list) list option;
      (* None = still waiting (only when fg > 0) *)
  mutable ready : bool; (* sigs (+ geo) complete, eligible to transmit *)
  mutable transmitted : bool;
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
  engine : Engine.t;
  needed_sigs : int;
  cluster : bool; (* cluster-sending mode: solicit probes, ship no bundles *)
  mutable pending : txn_state Int_map.t; (* comm_seq -> state *)
  mutable ready_count : int; (* pending entries with [ready = true] *)
  mutable highest : int;
  mutable acked : int;
  mutable target : int; (* destination node rotation index *)
  mutable enabled : bool;
  mutable sent_count : int;
  mutable ack_count : int;
  mutable ack_subs : (int -> unit) list;
  (* cluster mode: outstanding solicitations as (head_seq, sender, receiver) *)
  mutable sols : (int * int * int) list;
  (* comm_seq -> (sender, receiver) pairs whose probes carried that
     record's payload bytes. A stalled frontier is almost always a lost
     payload — the blocking record's carriers are the pairs to blame,
     not every outstanding solicitation (demoting all of those spreads
     strikes evenly over the whole unit and carries no signal at small
     n). Retired as the ack frontier passes. *)
  mutable carriers : (int * int) list Int_map.t;
  mutable attempt : int; (* pairing-schedule cursor *)
  mutable shipped : int;
      (* highest comm_seq whose payload bytes went out in a probe window;
         later probes of the same wave carry statement digests only.
         Reset to the acked frontier on a fruitless retry — the payload
         probe itself may be what was lost. *)
  (* node index -> strike count for nodes that burned a delivery
     attempt; any strikes mean the node is skipped (softly) by the
     pairing schedule. A starving schedule halves strikes instead of
     forgiving outright, so one-off collateral demotions clear while
     repeat offenders — the actual byzantine nodes — stay remembered.
     The bundle path's epoch reset (everyone demoted) still clears. *)
  mutable demoted_senders : (int * int) list;
  mutable demoted_receivers : (int * int) list;
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
  (* cluster mode: when the last probe solicitation went out, and the
     link round-trip — a fire with no ack progress is only {e stalled}
     once a full round trip (plus slack for the remote commit) has
     elapsed since then; earlier fires must not demote honest pairs or
     re-ship payloads that are still in flight *)
  mutable last_solicit : Time.t;
  mutable rtt : Time.t;
}

let dest t = t.dest
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

let send_aux t ~dst msg =
  Bp_net.Transport.send (Unit_node.transport t.node) ~dst
    ~tag:(Proto.aux_tag dst.Addr.dc) (Proto.encode msg)

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
    else if List.mem_assoc (k mod n) t.demoted_receivers then
      next (k + 1) (fuel - 1)
    else k
  in
  t.target <- next (t.target + 1) n

let add_strike demoted idx =
  let prior = Option.value ~default:0 (List.assoc_opt idx demoted) in
  (idx, Stdlib.min 8 (prior + 1)) :: List.remove_assoc idx demoted

(* Integer halving: single-strike (collateral) entries drop out, repeat
   offenders survive with half their record. *)
let halve_strikes demoted =
  List.filter_map
    (fun (idx, s) -> if s / 2 > 0 then Some (idx, s / 2) else None)
    demoted

let demote_receiver t idx =
  if not (List.mem_assoc idx t.demoted_receivers) then
    t.demoted_count <- t.demoted_count + 1;
  t.demoted_receivers <- add_strike t.demoted_receivers idx

let demote_sender t idx =
  if not (List.mem_assoc idx t.demoted_senders) then
    t.demoted_count <- t.demoted_count + 1;
  t.demoted_senders <- add_strike t.demoted_senders idx

(* ---------- fi+1-bundle path ---------- *)

let transmit t st =
  if t.enabled then begin
    let target = t.dest_nodes.(t.target mod Array.length t.dest_nodes) in
    st.transmitted <- true;
    t.sent_count <- t.sent_count + 1;
    send_aux t ~dst:target
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
  let self = Unit_node.addr t.node in
  (* Unit peers all live in one datacenter, so the fan-out shares one aux
     tag — encode the sign request once for the whole round. *)
  let others =
    Array.of_list
      (List.filter
         (fun peer -> not (Addr.equal peer self))
         (Array.to_list (Unit_node.peers t.node)))
  in
  Bp_net.Transport.broadcast (Unit_node.transport t.node) ~dsts:others
    ~tag:(Proto.aux_tag self.Addr.dc)
    (Proto.encode (Proto.Sign_request { transmission = st.txn }));
  maybe_ready t st

(* ---------- cluster-sending path ---------- *)

(* Keep the outstanding solicitations at fi+1 {e distinct} senders: every
   probe's window reaches back to the acked frontier, so distinct-sender
   solicitations each add one signer to every pending record's coverage,
   and fi+1 of them deliver the whole backlog. A steady stream then costs
   one probe per new record (plus one cumulative ack) regardless of unit
   size — the expected-constant claim. Two refinements keep the tail of a
   burst off the retry tick: only the first probe of a wave ships payload
   bytes (the rest are digest stubs, see {!Proto.probe}), and once the
   backlog shrinks to a single wave the head itself is topped up to fi+1
   distinct senders because no further records will arrive to do it. *)
let solicit ?(ship_all = false) t ~fresh =
  if t.cluster && t.enabled && t.highest > t.acked then begin
    let peers = Unit_node.peers t.node in
    let n_senders = Array.length peers in
    let n_receivers = Array.length t.dest_nodes in
    let chain =
      match Unit_node.cluster_agent t.node with
      | Some agent ->
          Option.value ~default:Record.chain_genesis
            (Cluster_send.chain_head agent ~dest:t.dest ~seq:t.highest)
      | None -> Record.chain_genesis
    in
    let src = Unit_node.participant t.node in
    let distinct l = List.sort_uniq Int.compare l in
    let used = ref (distinct (List.map (fun (_, s, _) -> s) t.sols)) in
    let deficit = t.needed_sigs - List.length !used in
    let head_cover =
      distinct
        (List.filter_map
           (fun (h, s, _) -> if h >= t.highest then Some s else None)
           t.sols)
    in
    let tail = Int_map.cardinal t.pending <= t.needed_sigs in
    let head_deficit = t.needed_sigs - List.length head_cover in
    let want =
      if tail then head_deficit
      else if fresh then
        (* A new head launches with two distinct signers (the payload
           probe plus one stub) so a small unit's fi+1 = 2 coverage
           completes in one round; larger units close the gap from the
           stream's later heads, still O(1) probes per record. *)
        Stdlib.max (Stdlib.min 2 head_deficit) deficit
      else 0
      (* Ack-driven mid-stream solicitation launches nothing: every
         upcoming head's eager wave extends coverage of the whole
         pending prefix, so topping the current head up to fi+1 here
         would spend probes the stream delivers for free. Stalls are
         the retry tick's job, and the tail case above handles the end
         of the stream, where no further heads are coming. *)
    in
    (* [fuel] bounds the soft skips: sender and receiver indices advance
       in lockstep, so an unfortunate demotion pattern could starve the
       schedule — after a full sweep of pair space, forgive everyone and
       accept the next pair rather than stall. Distinctness {e within}
       this wave is hard (repeating a signer adds nothing to coverage)
       but terminates on its own: the schedule cycles through all
       senders every [n_senders] attempts. *)
    let wave = ref [] in
    let rec pick k fuel =
      if k > 0 then begin
        (* A saturated [used] set — every sender not under demotion
           already carries an outstanding solicitation — makes the
           distinctness skip unsatisfiable; reuse is then harmless (a
           sender re-signing at a higher head is still one distinct
           signer per record), so reset the set rather than burn fuel
           down to the demotion amnesty, which would forgive the very
           strikes a stall just handed out. Counting the demoted list
           in (over-counts on overlap, which only resets early and
           reuse is harmless) keeps the amnesty for true starvation:
           demotions alone blocking every pair. Small units hit the
           reset constantly: 3fi+1 = 4 senders against a deeper
           pending window. *)
        if List.length !used + List.length t.demoted_senders >= n_senders then
          used := [];
        if fuel = 0 then begin
          t.demoted_senders <- halve_strikes t.demoted_senders;
          t.demoted_receivers <- halve_strikes t.demoted_receivers
        end;
        let sender, receiver =
          Cluster_send.Schedule.pair ~src ~dest:t.dest ~head_seq:t.highest
            ~chain ~attempt:t.attempt ~n_senders ~n_receivers
        in
        t.attempt <- t.attempt + 1;
        if
          List.mem sender !wave
          || fuel > 0
             && (List.mem_assoc sender t.demoted_senders
                || List.mem_assoc receiver t.demoted_receivers
                || List.mem sender !used)
        then pick k (fuel - 1)
        else begin
          used := sender :: !used;
          wave := sender :: !wave;
          (* Normally only the wave's first probe carries record bytes
             (the rest are digest stubs); a recovery wave after a
             fruitless tick ships bytes on every path, because the
             stalled frontier means the single payload copy was lost to
             a byzantine or lossy pair — redundancy here costs bytes
             only under faults. *)
          let payload_from =
            if ship_all then t.acked else Stdlib.max t.acked t.shipped
          in
          if payload_from < t.highest then begin
            (* This probe ships bytes for (payload_from, highest]: record
               the pair as those records' payload carrier so a stall can
               blame the actual burned path. *)
            let rec reg s =
              if s <= t.highest then begin
                let prior =
                  Option.value ~default:[] (Int_map.find_opt s t.carriers)
                in
                if
                  not
                    (List.exists
                       (fun (s0, r0) -> s0 = sender && r0 = receiver)
                       prior)
                then
                  t.carriers <-
                    Int_map.add s ((sender, receiver) :: prior) t.carriers;
                reg (s + 1)
              end
            in
            reg (payload_from + 1)
          end;
          t.sols <- (t.highest, sender, receiver) :: t.sols;
          t.sent_count <- t.sent_count + 1;
          send_aux t ~dst:peers.(sender)
            (Proto.Probe_request
               {
                 pr_dest = t.dest;
                 pr_base = t.acked;
                 pr_head = t.highest;
                 pr_payload_from = payload_from;
                 pr_receiver = receiver;
                 pr_reply_to = Unit_node.addr t.node;
               });
          t.shipped <- Stdlib.max t.shipped t.highest;
          t.last_solicit <- Engine.now t.engine;
          pick (k - 1) (n_senders * n_receivers)
        end
      end
    in
    pick want (n_senders * n_receivers)
  end

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
    let st = { txn; sigs = []; geo = None; ready = false; transmitted = false } in
    t.pending <- Int_map.add comm.Record.comm_seq st t.pending;
    t.highest <- Stdlib.max t.highest comm.Record.comm_seq;
    if t.cluster then solicit t ~fresh:true
    else begin
      (match t.geo_proofs with
      | None -> ()
      | Some wait ->
          wait ~pos ~on_ready:(fun bundles ->
              st.geo <- Some bundles;
              maybe_ready t st));
      request_signatures t st
    end
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
       every tick and drop solicitations the frontier has overtaken. *)
    t.backoff <- 1;
    t.next_fire_tick <- 0;
    t.sols <- List.filter (fun (seq, _, _) -> seq > comm_seq) t.sols;
    t.carriers <- Int_map.filter (fun seq _ -> seq > comm_seq) t.carriers;
    if t.shipped < comm_seq then t.shipped <- comm_seq;
    (* The frontier just moved: re-cover what remains now rather than on
       the next retry tick — the tail of a burst has no new tracks left
       to raise its coverage. *)
    if t.cluster && not (Int_map.is_empty t.pending) then solicit t ~fresh:false;
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

let retry_bundle t =
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

let retry_cluster t ~progressed =
  if not progressed then begin
    (* The frontier is stuck: the blocking record's payload never landed
       (or its coverage shortfall persists). Demote both ends of the
       pairs that carried its bytes — one of them burned the delivery —
       and only those: demoting every outstanding solicitation's ends
       would hand out strikes to the whole unit at small n, drowning the
       byzantine signal in collateral. The carrier entry is dropped so
       the next stall blames only the paths tried since this one. *)
    (match Int_map.find_opt (t.acked + 1) t.carriers with
    | Some pairs ->
        List.iter
          (fun (sender, receiver) ->
            demote_sender t sender;
            demote_receiver t receiver)
          pairs;
        t.carriers <- Int_map.remove (t.acked + 1) t.carriers
    | None -> ());
    t.sols <- [];
    (* Any of the burned probes may have been the one carrying payload
       bytes: re-ship the whole unacked window. *)
    t.shipped <- t.acked
  end;
  solicit t ~fresh:(not progressed) ~ship_all:(not progressed)

let on_tick t =
  t.tick <- t.tick + 1;
  if t.enabled && not (Int_map.is_empty t.pending) && t.tick >= t.next_fire_tick
  then begin
    let progressed = t.acked > t.last_fire_acked in
    (* Cluster mode: a fire with no progress is only a {e stall} once the
       newest solicitation has had a full round trip (plus commit slack)
       to produce an ack. The fast cluster timer fires well inside that
       window; treating those early fires as fruitless would demote
       honest pairs and re-ship payloads that are still in flight. The
       bundle path keeps the seed's plain no-progress test. *)
    let ripe =
      (not t.cluster)
      || Time.(
           Engine.now t.engine
           >= Time.add t.last_solicit (Time.add t.rtt (Time.of_ms 10.0)))
    in
    let stalled = (not progressed) && ripe in
    (* Fruitless fire: nothing delivered since the last one. Back off
       (capped) so a dead destination is not hammered every tick; any
       ack resets the cadence. A progressing daemon keeps backoff = 1
       and this gate never skips a tick — byte-identical to the seed. *)
    if stalled && t.retry_count > 0 then
      t.backoff <- Stdlib.min (t.backoff * 2) 8;
    if stalled && t.retry_count > 0 && not t.cluster then
      demote_receiver t (t.target mod Array.length t.dest_nodes);
    t.last_fire_acked <- t.acked;
    t.retry_count <- t.retry_count + 1;
    t.next_fire_tick <- t.tick + t.backoff + jitter t;
    if t.cluster then retry_cluster t ~progressed:(not stalled)
    else retry_bundle t
  end

let create ~node ~dest ~dest_nodes ?geo_proofs ?(cluster_send = false)
    ?(start_after = -1) () =
  let engine =
    Network.engine (Bp_net.Transport.network (Unit_node.transport node))
  in
  let t =
    {
      node;
      dest;
      dest_nodes;
      geo_proofs;
      engine;
      needed_sigs = Unit_node.fi node + 1;
      (* geo-proof records must carry bundles for the mirrors: the knob
         falls back to the bundle path when fg-proofs are in play. *)
      cluster =
        cluster_send && Option.is_none geo_proofs
        && Unit_node.cluster_enabled node;
      pending = Int_map.empty;
      ready_count = 0;
      highest = start_after;
      acked = start_after;
      target = 0;
      enabled = true;
      sent_count = 0;
      ack_count = 0;
      ack_subs = [];
      sols = [];
      carriers = Int_map.empty;
      attempt = 0;
      shipped = start_after;
      demoted_senders = [];
      demoted_receivers = [];
      demoted_count = 0;
      tick = 0;
      backoff = 1;
      next_fire_tick = 0;
      last_fire_acked = start_after;
      retry_count = 0;
      last_solicit = Time.zero;
      rtt = Time.zero;
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
  let topo = Network.topology (Bp_net.Transport.network (Unit_node.transport node)) in
  let rtt = Topology.rtt topo (Unit_node.addr node).Addr.dc dest in
  t.rtt <- rtt;
  ignore
    (Engine.periodic engine ~every:(Time.add (Time.scale rtt 3.0) (Time.of_ms 20.0))
       (fun () -> on_tick t));
  (* Cluster mode recovers from a burned wave by re-pairing, which only
     needs a fresh probe round trip — give it a tick near the RTT rather
     than the bundle path's conservative 3x cadence. The extra timer
     exists only in cluster mode, so bundle-mode runs (and the golden
     experiments) keep the seed's exact event schedule. *)
  if t.cluster then
    ignore
      (Engine.periodic engine ~every:(Time.add rtt (Time.of_ms 20.0)) (fun () ->
           on_tick t));
  t
