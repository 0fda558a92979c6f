open Bp_sim

let log = Logs.Src.create "bp.paxos" ~doc:"Paxos replica"

module Log = (val Logs.src_log log : Logs.LOG)
module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

exception Conflicting_choice of int * string * string

type config = { nodes : Addr.t array; election_timeout : Time.t }
type net = { send : dst:int -> Msg.t -> unit; broadcast : Msg.t -> unit }
type retry = { engine : Engine.t; rng : Bp_util.Rng.t; timeout : Time.t }

type prepare_state = {
  pballot : Ballot.t;
  mutable votes : Int_set.t;
  mutable seen_accepted : (Ballot.t * string) Int_map.t;
  mutable finished : bool;
  on_elected : unit -> unit;
  on_nack : unit -> unit;
}

type proposal = {
  prop_ballot : Ballot.t;
  value : string;
  mutable acks : Int_set.t;
  mutable committed : bool;
  on_commit : int -> unit;
  on_nack : unit -> unit;
}

type t = {
  n : int;
  id : int;
  net : net;
  retry : retry option; (* [Some] only under [auto_retry] *)
  (* acceptor state; an ordered map so recovery scans are deterministic *)
  mutable promised : Ballot.t;
  mutable accepted : (Ballot.t * string) Int_map.t;
  (* learner state *)
  chosen : (int, string) Hashtbl.t;
  mutable max_chosen : int;
  on_learn : int -> string -> unit;
  (* proposer state *)
  mutable ballot : Ballot.t;
  mutable leading : bool;
  mutable next_instance : int;
  mutable prepare : prepare_state option;
  proposals : (int, proposal) Hashtbl.t;
}

let is_leader t = t.leading
let majority t = (t.n / 2) + 1

let learn t instance value =
  match Hashtbl.find_opt t.chosen instance with
  | Some existing ->
      if not (String.equal existing value) then
        raise (Conflicting_choice (instance, existing, value))
  | None ->
      Hashtbl.replace t.chosen instance value;
      t.max_chosen <- Int.max t.max_chosen instance;
      t.on_learn instance value

(* ---------- acceptor ---------- *)

let on_prepare t ~src (ballot : Ballot.t) from_instance =
  if Ballot.(ballot >= t.promised) then begin
    t.promised <- ballot;
    let accepted =
      Int_map.fold
        (fun instance (b, v) acc ->
          if instance >= from_instance then
            { Msg.instance; ballot = b; value = v } :: acc
          else acc)
        t.accepted []
    in
    t.net.send ~dst:src (Msg.Promise { ballot; ok = true; accepted })
  end
  else t.net.send ~dst:src (Msg.Promise { ballot; ok = false; accepted = [] })

let on_propose t ~src ballot instance value =
  if Ballot.(ballot >= t.promised) then begin
    t.promised <- ballot;
    t.accepted <- Int_map.add instance (ballot, value) t.accepted;
    t.net.send ~dst:src (Msg.Accepted { ballot; instance; ok = true })
  end
  else t.net.send ~dst:src (Msg.Accepted { ballot; instance; ok = false })

(* ---------- proposer ---------- *)

let start_proposal t instance value ~on_commit ~on_nack =
  let p =
    {
      prop_ballot = t.ballot;
      value;
      acks = Int_set.empty;
      committed = false;
      on_commit;
      on_nack;
    }
  in
  Hashtbl.replace t.proposals instance p;
  t.net.broadcast (Msg.Propose { ballot = t.ballot; instance; value })

let propose ?(on_nack = ignore) t value ~on_commit =
  if not t.leading then failwith "Paxos.propose: not the leader";
  let instance = t.next_instance in
  t.next_instance <- instance + 1;
  start_proposal t instance value ~on_commit ~on_nack

let rec try_lead_ballot t ballot ~on_elected ~on_nack =
  t.ballot <- ballot;
  let st =
    {
      pballot = ballot;
      votes = Int_set.empty;
      seen_accepted = Int_map.empty;
      finished = false;
      on_elected;
      on_nack;
    }
  in
  t.prepare <- Some st;
  t.net.broadcast (Msg.Prepare { ballot; from_instance = 0 });
  match t.retry with
  | None -> ()
  | Some r ->
      let backoff =
        Time.add r.timeout
          (Time.of_ms (Bp_util.Rng.float r.rng (Time.to_ms r.timeout)))
      in
      ignore
        (Engine.schedule r.engine ~after:backoff (fun () ->
             if (not st.finished) && not t.leading then
               try_lead_ballot t
                 (Ballot.next (Ballot.next t.promised ~node:t.id) ~node:t.id)
                 ~on_elected ~on_nack))

let try_lead ?(on_nack = ignore) t ~on_elected =
  let base = if Ballot.(t.promised > t.ballot) then t.promised else t.ballot in
  try_lead_ballot t (Ballot.next base ~node:t.id) ~on_elected ~on_nack

let step_down t =
  if t.leading then Log.debug (fun m -> m "paxos %d: stepping down" t.id);
  t.leading <- false

let on_promise t ~src ballot ok accepted_entries =
  match t.prepare with
  | Some st when Ballot.equal st.pballot ballot && not st.finished ->
      if not ok then begin
        st.finished <- true;
        t.prepare <- None;
        st.on_nack ()
      end
      else begin
        st.votes <- Int_set.add src st.votes;
        List.iter
          (fun { Msg.instance; ballot = b; value } ->
            let better =
              match Int_map.find_opt instance st.seen_accepted with
              | None -> true
              | Some (b', _) -> Ballot.(b > b')
            in
            if better then
              st.seen_accepted <- Int_map.add instance (b, value) st.seen_accepted)
          accepted_entries;
        if Int_set.cardinal st.votes >= majority t then begin
          st.finished <- true;
          t.prepare <- None;
          t.leading <- true;
          (* Re-propose previously accepted values (paxos recovery rule:
             highest-ballot accepted value per instance wins). *)
          let max_inst = ref (-1) in
          Int_map.iter
            (fun instance (_, value) ->
              max_inst := Int.max !max_inst instance;
              if not (Hashtbl.mem t.chosen instance) then
                start_proposal t instance value ~on_commit:ignore ~on_nack:ignore)
            st.seen_accepted;
          max_inst := Int.max !max_inst t.max_chosen;
          t.next_instance <- Int.max t.next_instance (!max_inst + 1);
          st.on_elected ()
        end
      end
  | _ -> ()

let on_accepted t ~src ballot instance ok =
  match Hashtbl.find_opt t.proposals instance with
  | Some p when Ballot.equal p.prop_ballot ballot && not p.committed ->
      if not ok then begin
        (* A higher ballot exists: we are no longer leader (Algorithm 3
           sets l = false on a failed majority). *)
        Hashtbl.remove t.proposals instance;
        step_down t;
        p.on_nack ()
      end
      else begin
        p.acks <- Int_set.add src p.acks;
        if Int_set.cardinal p.acks >= majority t then begin
          p.committed <- true;
          learn t instance p.value;
          p.on_commit instance;
          t.net.broadcast (Msg.Learn { instance; value = p.value })
        end
      end
  | _ -> ()

let receive t ~src = function
  | Msg.Prepare { ballot; from_instance } -> on_prepare t ~src ballot from_instance
  | Msg.Promise { ballot; ok; accepted } -> on_promise t ~src ballot ok accepted
  | Msg.Propose { ballot; instance; value } -> on_propose t ~src ballot instance value
  | Msg.Accepted { ballot; instance; ok } -> on_accepted t ~src ballot instance ok
  | Msg.Learn { instance; value } -> learn t instance value

let of_net net ~n ~id ~on_learn =
  {
    n;
    id;
    net;
    retry = None;
    promised = Ballot.zero;
    accepted = Int_map.empty;
    chosen = Hashtbl.create 64;
    max_chosen = -1;
    on_learn;
    ballot = Ballot.zero;
    leading = false;
    next_instance = 0;
    prepare = None;
    proposals = Hashtbl.create 16;
  }

let create ?(auto_retry = false) transport cfg ~id ~on_learn =
  let net =
    {
      send =
        (fun ~dst m ->
          Bp_net.Transport.send transport ~dst:cfg.nodes.(dst) ~tag:Msg.tag
            (Msg.encode m));
      broadcast =
        (fun m ->
          (* Encode once for the whole cluster, not once per acceptor. *)
          Bp_net.Transport.broadcast transport ~dsts:cfg.nodes ~tag:Msg.tag
            (Msg.encode m));
    }
  in
  let retry =
    if auto_retry then
      let engine = Network.engine (Bp_net.Transport.network transport) in
      Some
        {
          engine;
          rng = Bp_util.Rng.split (Engine.rng engine);
          timeout = cfg.election_timeout;
        }
    else None
  in
  let t = { (of_net net ~n:(Array.length cfg.nodes) ~id ~on_learn) with retry } in
  Bp_net.Transport.set_handler transport ~tag:Msg.tag (fun ~src ~hint:_ payload ->
      match Array.find_index (Addr.equal src) cfg.nodes with
      | None -> ()
      | Some src -> (
          match Msg.decode payload with
          | Ok m -> receive t ~src m
          | Error e -> Log.debug (fun m -> m "paxos %d: bad message: %s" id e)));
  t

let chosen t instance = Hashtbl.find_opt t.chosen instance
