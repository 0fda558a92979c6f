open Bp_sim

module Int_map = Map.Make (Int)

(* ---------- the mirror-side agent ---------- *)

module Agent = struct
  type duty = {
    owner : int;
    pos : int;
    digest : string;
    requester : Addr.t;
    mutable sigs : (string * string) list;
    mutable responded : bool;
  }

  type t = {
    node : Unit_node.t;
    duties : duty Proto.Mirror_tbl.t; (* Proto.mirror_key *)
  }

  let needed t = Unit_node.fi t.node + 1

  let respond t duty =
    if (not duty.responded) && List.length duty.sigs >= needed t then begin
      duty.responded <- true;
      Unit_node.send_aux t.node ~dst:duty.requester
        (Proto.Mirror_proof
           {
             owner = duty.owner;
             pos = duty.pos;
             participant = Unit_node.participant t.node;
             sigs = duty.sigs;
           })
    end

  let gather_signatures t duty =
    (match
       Unit_node.sign_mirror t.node ~owner:duty.owner ~pos:duty.pos
         ~digest:duty.digest
     with
    | Some signature -> duty.sigs <- [ (Unit_node.identity t.node, signature) ]
    | None -> ());
    let self = Unit_node.addr t.node in
    Array.iter
      (fun peer ->
        if not (Addr.equal peer self) then
          Unit_node.send_aux t.node ~dst:peer
            (Proto.Mirror_sign_request
               { owner = duty.owner; pos = duty.pos; digest = duty.digest }))
      (Unit_node.peers t.node);
    respond t duty

  let on_request t ~src ~owner ~pos ~value =
    let digest = Bp_crypto.Verify_cache.digest (Unit_node.vcache t.node) value in
    let key = Proto.mirror_key ~owner ~pos in
    match Proto.Mirror_tbl.find_opt t.duties key with
    | _ when key < 0 -> () (* out of range: names no log entry *)
    | Some duty ->
        (* Duplicate request (retry): re-answer if complete. *)
        duty.responded <- false;
        respond t duty;
        if not duty.responded then gather_signatures t duty
    | None ->
        let duty = { owner; pos; digest; requester = src; sigs = []; responded = false } in
        Proto.Mirror_tbl.replace t.duties key duty;
        if Option.is_some (Unit_node.mirror_digest t.node ~owner ~pos) then
          gather_signatures t duty
        else
          (* Commit the mirrored entry through our own unit's PBFT. *)
          Unit_node.submit_record t.node
            (Record.Mirrored { owner; opos = pos; ovalue = value })
            ~on_result:(fun _ -> gather_signatures t duty)

  let on_sign_request t ~src ~owner ~pos ~digest =
    match Unit_node.sign_mirror t.node ~owner ~pos ~digest with
    | None -> ()
    | Some signature ->
        Unit_node.send_aux t.node ~dst:src
          (Proto.Mirror_sign_response
             { owner; pos; identity = Unit_node.identity t.node; signature })

  let on_sign_response t ~owner ~pos ~identity ~signature =
    match Proto.Mirror_tbl.find_opt t.duties (Proto.mirror_key ~owner ~pos) with
    | None -> ()
    | Some duty ->
        (* Only this unit's own nodes count toward its bundle: the
           owner screens the bundle the same way, and a foreign
           signature would leave it short. *)
        if
          Unit_node.attests t.node ~participant:(Unit_node.participant t.node)
            identity
          && (not (List.mem_assoc identity duty.sigs))
          && Bp_crypto.Verify_cache.verify (Unit_node.vcache t.node)
               ~signer:identity
               ~msg:(Proto.mirror_statement ~owner ~pos ~digest:duty.digest)
               ~signature
        then begin
          duty.sigs <- (identity, signature) :: duty.sigs;
          respond t duty
        end

  let install node =
    let t = { node; duties = Proto.Mirror_tbl.create 64 } in
    Unit_node.add_aux_listener node (fun ~src msg ->
        match msg with
        | Proto.Mirror_request { owner; pos; value } ->
            on_request t ~src ~owner ~pos ~value
        | Proto.Mirror_sign_request { owner; pos; digest } ->
            on_sign_request t ~src ~owner ~pos ~digest
        | Proto.Mirror_sign_response { owner; pos; identity; signature } ->
            on_sign_response t ~owner ~pos ~identity ~signature
        | _ -> ());
    t
end

(* ---------- the owner-side coordinator ---------- *)

type entry_state = {
  value : string;
  mutable bundles : (int * (string * string) list) list;
  mutable proved : bool;
  mutable waiters : (unit -> unit) list;
}

type t = {
  node : Unit_node.t;
  fg : int;
  mirror_set : int list;
  all_unit_nodes : int -> Addr.t array;
  engine : Engine.t;
  mutable entries : entry_state Int_map.t;
  mutable suspected : int list;
  mutable suspect_subs : (int -> unit) list;
}

let current_targets t =
  let live = List.filter (fun p -> not (List.mem p t.suspected)) t.mirror_set in
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  take t.fg live

let is_proved t ~pos =
  t.fg = 0
  ||
  match Int_map.find_opt pos t.entries with
  | Some e -> e.proved
  | None -> false

let on_suspect t f = t.suspect_subs <- f :: t.suspect_subs

let request_proofs t pos e =
  List.iter
    (fun participant ->
      let nodes = t.all_unit_nodes participant in
      Unit_node.send_aux t.node ~dst:nodes.(0)
        (Proto.Mirror_request
           { owner = Unit_node.participant t.node; pos; value = e.value }))
    (current_targets t)

let begin_proving t ~pos ~value =
  if t.fg > 0 && not (Int_map.mem pos t.entries) then begin
    let e = { value; bundles = []; proved = false; waiters = [] } in
    t.entries <- Int_map.add pos e t.entries;
    request_proofs t pos e
  end

let mark_proved _t e =
  if not e.proved then begin
    e.proved <- true;
    let ws = List.rev e.waiters in
    e.waiters <- [];
    List.iter (fun k -> k ()) ws
  end

let on_proof t ~pos ~participant ~sigs =
  match Int_map.find_opt pos t.entries with
  | None -> ()
  | Some e ->
      if (not e.proved) && not (List.mem_assoc participant e.bundles) then begin
        let digest = Bp_crypto.Verify_cache.digest (Unit_node.vcache t.node) e.value in
        let statement =
          Proto.mirror_statement ~owner:(Unit_node.participant t.node) ~pos ~digest
        in
        let distinct = Hashtbl.create 8 in
        let valid =
          List.filter
            (fun (identity, signature) ->
              (not (Hashtbl.mem distinct identity))
              && Unit_node.attests t.node ~participant identity
              && Bp_crypto.Verify_cache.verify (Unit_node.vcache t.node)
                   ~signer:identity ~msg:statement ~signature
              && begin
                   Hashtbl.add distinct identity ();
                   true
                 end)
            sigs
        in
        if List.length valid >= Unit_node.fi t.node + 1 then begin
          e.bundles <- (participant, valid) :: e.bundles;
          if List.length e.bundles >= t.fg then mark_proved t e
        end
      end

let wait_proved t ~pos k =
  if t.fg = 0 then k ()
  else
    match Int_map.find_opt pos t.entries with
    | Some e -> if e.proved then k () else e.waiters <- k :: e.waiters
    | None ->
        (* Proving starts from the execution hook; a waiter may register
           first (API callback order). Park a placeholder. *)
        let e = { value = ""; bundles = []; proved = false; waiters = [ k ] } in
        t.entries <- Int_map.add pos e t.entries

let proofs_for t ~pos ~on_ready =
  if t.fg = 0 then on_ready []
  else
    wait_proved t ~pos (fun () ->
        match Int_map.find_opt pos t.entries with
        | Some e -> on_ready e.bundles
        | None -> on_ready [])

let create ~node ~fg ~mirror_set ~all_unit_nodes () =
  let engine = Network.engine (Bp_net.Transport.network (Unit_node.transport node)) in
  let t =
    {
      node;
      fg;
      mirror_set;
      all_unit_nodes;
      engine;
      entries = Int_map.empty;
      suspected = [];
      suspect_subs = [];
    }
  in
  if fg > 0 then begin
    (* Start proving every record as it lands in the Local Log. *)
    Unit_node.add_executed_hook node (fun ~pos record ->
        match record with
        | Record.Mirrored _ -> () (* mirror entries are not re-mirrored *)
        | _ -> (
            let value = Record.encode record in
            match Int_map.find_opt pos t.entries with
            | Some e when e.value = "" ->
                (* A waiter parked a placeholder before execution. *)
                let e' = { e with value } in
                t.entries <- Int_map.add pos e' t.entries;
                request_proofs t pos e'
            | Some _ -> ()
            | None -> begin_proving t ~pos ~value));
    (* Proof bundles come back on the aux tag. *)
    Unit_node.add_aux_listener node (fun ~src:_ msg ->
        match msg with
        | Proto.Mirror_proof { owner; pos; participant; sigs }
          when owner = Unit_node.participant node ->
            on_proof t ~pos ~participant ~sigs
        | _ -> ());
    (* Heartbeat the mirror candidates' lead nodes; reroute on suspicion. *)
    let peers = List.map (fun p -> (all_unit_nodes p).(0)) mirror_set in
    let addr_to_participant a = a.Addr.dc in
    ignore
      (Bp_net.Heartbeat.create (Unit_node.transport node) ~peers
         ~period:(Time.of_ms 50.0) ~timeout:(Time.of_ms 200.0)
         ~on_suspect:(fun a ->
           let p = addr_to_participant a in
           if not (List.mem p t.suspected) then begin
             t.suspected <- p :: t.suspected;
             List.iter (fun f -> f p) t.suspect_subs;
             (* Re-request proofs for unproved entries from the new
                target set. *)
             Int_map.iter
               (fun pos e -> if (not e.proved) && e.value <> "" then request_proofs t pos e)
               t.entries
           end)
         ~on_restore:(fun a ->
           let p = addr_to_participant a in
           t.suspected <- List.filter (fun q -> q <> p) t.suspected)
         ());
    (* Slow retry for unproved entries (lost requests, lagging mirrors). *)
    ignore
      (Engine.periodic engine ~every:(Time.of_ms 500.0) (fun () ->
           Int_map.iter
             (fun pos e ->
               if (not e.proved) && e.value <> "" then request_proofs t pos e)
             t.entries))
  end;
  t
