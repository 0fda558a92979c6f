open Bp_sim

type t = {
  node : Unit_node.t;
  dest : int;
  dest_nodes : Addr.t array;
  geo_proofs :
    (pos:int -> on_ready:((int * (string * string) list) list -> unit) -> unit)
    option;
  fi : int;
  mutable local_highest : int; (* highest comm_seq to dest in our log copy *)
  mutable replies : (Addr.t * int) list; (* current probe round *)
  mutable consecutive_gaps : int;
  mutable promoted_daemon : Comm_daemon.t option;
  mutable probe_timer : Engine.timer option;
}

(* Probe cadence, and consecutive gap observations before promotion. *)
let probe_every = Time.of_ms 500.0
let patience = 3

let promoted t = Option.is_some t.promoted_daemon
let daemon t = t.promoted_daemon

let send_aux t ~dst msg =
  Bp_net.Transport.send (Unit_node.transport t.node) ~dst
    ~tag:(Proto.aux_tag dst.Addr.dc) (Proto.encode msg)

(* The paper's rule: with responses from more than f+1 nodes, pick the set
   of f+1 that maximises the lowest reported position — i.e. the (f+1)-th
   largest response. Any set of f+1 contains an honest node, so that value
   is a true floor. *)
let guaranteed_floor t =
  let values = List.map snd t.replies in
  if List.length values < t.fi + 1 then None
  else begin
    let sorted = List.sort (fun a b -> Int.compare b a) values in
    List.nth_opt sorted t.fi
  end

let promote t floor =
  if not (promoted t) then begin
    t.promoted_daemon <-
      Some
        (Comm_daemon.create ~node:t.node ~dest:t.dest ~dest_nodes:t.dest_nodes
           ?geo_proofs:t.geo_proofs
           ~cluster_send:(Unit_node.cluster_enabled t.node)
           ~start_after:floor ());
    match t.probe_timer with
    | Some timer ->
        Engine.cancel timer;
        t.probe_timer <- None
    | None -> ()
  end

let evaluate t =
  (match guaranteed_floor t with
  | None -> ()
  | Some floor ->
      if t.local_highest > floor then begin
        t.consecutive_gaps <- t.consecutive_gaps + 1;
        if t.consecutive_gaps >= patience then promote t floor
      end
      else t.consecutive_gaps <- 0);
  t.replies <- []

let probe t =
  evaluate t;
  if not (promoted t) then begin
    (* Ask up to 2f+1 destination nodes. *)
    let count = Stdlib.min (Array.length t.dest_nodes) ((2 * t.fi) + 1) in
    for i = 0 to count - 1 do
      send_aux t ~dst:t.dest_nodes.(i)
        (Proto.Reserve_query { src = Unit_node.participant t.node })
    done
  end

let create ~node ~dest ~dest_nodes ?geo_proofs () =
  let engine = Network.engine (Bp_net.Transport.network (Unit_node.transport node)) in
  let t =
    {
      node;
      dest;
      dest_nodes;
      geo_proofs;
      fi = Unit_node.fi node;
      local_highest = -1;
      replies = [];
      consecutive_gaps = 0;
      promoted_daemon = None;
      probe_timer = None;
    }
  in
  (* Track the communication frontier from our own log copy. *)
  Bp_storage.Log_store.iter_from (Unit_node.log node) 0 (fun entry ->
      match Record.decode entry.Bp_storage.Log_store.payload with
      | Ok (Record.Comm { dest = d; comm_seq; _ }) when d = dest ->
          t.local_highest <- Stdlib.max t.local_highest comm_seq
      | _ -> ());
  Unit_node.add_executed_hook node (fun ~pos:_ record ->
      match record with
      | Record.Comm { dest = d; comm_seq; _ } when d = dest ->
          t.local_highest <- Stdlib.max t.local_highest comm_seq
      | _ -> ());
  Unit_node.add_aux_listener node (fun ~src msg ->
      match msg with
      | Proto.Reserve_reply { src = s; last }
        when s = Unit_node.participant node
             && src.Addr.dc = t.dest
             && not (promoted t) ->
          if not (List.mem_assoc src t.replies) then
            t.replies <- (src, last) :: t.replies;
          true
      | _ -> false);
  t.probe_timer <- Some (Engine.periodic engine ~every:probe_every (fun () -> probe t));
  t
