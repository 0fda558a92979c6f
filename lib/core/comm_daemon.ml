open Bp_sim

module Int_map = Map.Make (Int)

type txn_state = {
  txn : Record.transmission;
  mutable sigs : (string * string) list;
  mutable geo : (int * (string * string) list) list option;
      (* None = still waiting (only when fg > 0) *)
  mutable ready : bool; (* sigs (+ geo) complete, eligible to transmit *)
}

type counters = { sent : int; retries : int; demoted : int }

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
  mutable ack_subs : (int -> unit) list;
  mutable retry_count : int;
}

let acked t = t.acked
let set_enabled t b = t.enabled <- b

let counters t = { sent = t.sent_count; retries = t.retry_count; demoted = 0 }
let on_acked t f = t.ack_subs <- f :: t.ack_subs

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
    && (Option.is_none t.geo_proofs || Option.is_some st.geo)
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
    t.highest <- Int.max t.highest comm.Record.comm_seq;
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
        (* Validate before counting: only a node of this unit may attest
           (the receiver counts no other), and a byzantine one could
           send junk. The check is a single-signature batch on the
           per-node cache the bundles use. *)
        if
          Unit_node.attests t.node ~participant:(Unit_node.participant t.node)
            identity
          && (not (List.mem_assoc identity st.sigs))
          && List.for_all Fun.id
               (Bp_crypto.Verify_cache.verify_batch (Unit_node.vcache t.node)
                  [
                    {
                      Bp_crypto.Verify_cache.signer = identity;
                      msg = Unit_node.transmission_statement t.node st.txn;
                      signature;
                    };
                  ])
        then begin
          st.sigs <- (identity, signature) :: st.sigs;
          maybe_ready t st
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
    (* [split] shares the unacked part of the map instead of rebuilding
       all of it, as a [partition] would on every ack. *)
    let below, at, rest = Int_map.split comm_seq t.pending in
    let drop st = if st.ready then t.ready_count <- t.ready_count - 1 in
    Int_map.iter (fun _ st -> drop st) below;
    Option.iter drop at;
    t.pending <- rest;
    List.iter (fun f -> f comm_seq) t.ack_subs
  end

(* ---------- retry (Algorithm 2: on timeout, the next node) ---------- *)

let retry t =
  t.retry_count <- t.retry_count + 1;
  (* Re-send everything ready but unacknowledged, in order, to the next
     destination node — a crashed or malicious receiver node is
     bypassed; the receiver deduplicates. [ready_count] keeps the test
     O(1): a scan of [pending] grows with the unacknowledged backlog. *)
  if t.ready_count > 0 then begin
    t.target <- t.target + 1;
    Int_map.iter (fun _ st -> if st.ready then transmit t st) t.pending
  end
  else
    (* Signatures still missing (lagging peers): ask again. *)
    Int_map.iter (fun _ st -> request_signatures t st) t.pending

let on_tick t = if t.enabled && not (Int_map.is_empty t.pending) then retry t

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
      ack_subs = [];
      retry_count = 0;
    }
  in
  (* Backlog from the first log entry (Algorithm 2's pointer p), then
     each new execution. *)
  Unit_node.follow_comms node (fun ~pos comm -> track t ~pos comm);
  (* Responses (signatures, acks) arrive on the unit's aux tag. *)
  Unit_node.add_aux_listener node (fun ~src:_ msg ->
      match msg with
      | Proto.Sign_response { dest; comm_seq; identity; signature } when dest = t.dest ->
          on_sign_response t ~dest ~comm_seq ~identity ~signature
      | Proto.Ack { from_participant; comm_seq } when from_participant = t.dest ->
          on_ack t ~from_participant ~comm_seq
      | _ -> ());
  (* Retry cadence scales with the destination RTT: every tick, an
     enabled daemon with unacknowledged records retries. *)
  let rtt = Topology.rtt (Network.topology net) (Unit_node.addr node).Addr.dc dest in
  ignore
    (Engine.periodic (Network.engine net)
       ~every:(Time.add (Time.scale rtt 3.0) (Time.of_ms 20.0))
       (fun () -> on_tick t));
  t
