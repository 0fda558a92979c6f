open Bp_sim

type read_round = {
  rpos : int;
  mutable answers : (Addr.t * string option) list;
  mutable resolved : bool;
  callback : Record.t option -> unit;
}

type t = {
  participant : int;
  n_participants : int;
  pbft_cfg : Bp_pbft.Config.t;
  transport : Bp_net.Transport.t;
  client : Bp_pbft.Client.t;
  lead_node : Unit_node.t;
  geo : Geo.t;
  next_comm_seq : int array;
  delivered : int array; (* per source: last comm_seq handed to handlers *)
  reception : string Queue.t array; (* per source: delivered, unread *)
  mutable recv_handlers : (src:int -> string -> unit) list;
  mutable reads : read_round list;
}

let participant t = t.participant
let next_comm_seq t ~dest = t.next_comm_seq.(dest)
let pipeline_occupancy t = Unit_node.pipeline_occupancy t.lead_node
let batch_stats t = Bp_pbft.Replica.batch_stats (Unit_node.replica t.lead_node)
let queue_depth t = Bp_pbft.Replica.queue_depth (Unit_node.replica t.lead_node)
let xs_staged t = Unit_node.xs_staged t.lead_node

let quorum t = (2 * t.pbft_cfg.Bp_pbft.Config.f) + 1

let on_read_reply t ~src ~pos ~payload =
  List.iter
    (fun round ->
      if round.rpos = pos && not round.resolved then
        if not (List.mem_assoc src round.answers) then begin
          round.answers <- (src, payload) :: round.answers;
          (* Count identical answers. *)
          let tally p =
            List.length (List.filter (fun (_, q) -> q = p) round.answers)
          in
          let winner =
            List.find_opt (fun (_, p) -> tally p >= quorum t) round.answers
          in
          match winner with
          | Some (_, p) ->
              round.resolved <- true;
              round.callback
                (Option.bind p (fun s ->
                     match Record.decode s with Ok r -> Some r | Error _ -> None))
          | None -> ()
        end)
    t.reads;
  t.reads <- List.filter (fun r -> not r.resolved) t.reads

let create ~network ~pbft_cfg ~participant ~n_participants ~lead_node ~geo
    ~vcache =
  (* The API endpoint is co-located with the unit (client latency is one
     intra-DC hop, as in Fig. 3(a)). *)
  let addr = Addr.make ~dc:participant ~idx:90 in
  let transport = Bp_net.Transport.create network addr in
  (* The endpoint is its own principal: [vcache] is its own memo, never a
     replica's (verdict caches must not cross node boundaries). *)
  let client = Bp_pbft.Client.create ~cache:vcache transport pbft_cfg in
  let t =
    {
      participant;
      n_participants;
      pbft_cfg;
      transport;
      client;
      lead_node;
      geo;
      next_comm_seq = Array.make n_participants 0;
      delivered = Array.make n_participants (-1);
      reception = Array.init n_participants (fun _ -> Queue.create ());
      recv_handlers = [];
      reads = [];
    }
  in
  (* Two copies of one transmission can be ordered into one batch; both
     pass verification against the pre-batch state and both execute. Only
     the copy that advanced the source's frontier is a delivery: buffered
     for [receive], then handed to the handlers. *)
  Unit_node.add_executed_hook lead_node (fun ~pos:_ record ->
      match record with
      | Record.Recv tr ->
          let src = tr.Record.src and seq = tr.Record.tcomm_seq in
          if seq > t.delivered.(src)
             && seq = Unit_node.last_received lead_node ~src
          then begin
            t.delivered.(src) <- seq;
            Queue.push tr.Record.tpayload t.reception.(src);
            List.iter (fun h -> h ~src tr.Record.tpayload) t.recv_handlers
          end
      | _ -> ());
  (* Quorum-read replies arrive on this participant's aux tag. *)
  Bp_net.Transport.set_handler transport ~tag:(Proto.aux_tag participant)
    (fun ~src payload ->
      match Proto.decode payload with
      | Ok (Proto.Read_reply { pos; payload }) -> on_read_reply t ~src ~pos ~payload
      | _ -> ());
  t

let submit t record ~on_done ~on_rejected =
  Bp_pbft.Client.submit t.client
    ~kind:(Record.kind_to_int (Record.kind_of record))
    (Record.encode record)
    ~on_result:(fun result ->
      match int_of_string_opt result with
      | Some pos -> Geo.wait_proved t.geo ~pos on_done
      | None -> on_rejected ())

let log_commit t ?(on_rejected = ignore) payload ~on_done =
  submit t (Record.Commit payload) ~on_done ~on_rejected

let send t ?(on_rejected = ignore) ~dest payload ~on_done =
  if dest < 0 || dest >= t.n_participants || dest = t.participant then
    invalid_arg "Blockplane.Api.send: bad destination";
  let comm_seq = t.next_comm_seq.(dest) in
  t.next_comm_seq.(dest) <- comm_seq + 1;
  submit t (Record.Comm { Record.dest; comm_seq; payload }) ~on_done ~on_rejected

let receive t ~src = Queue.take_opt t.reception.(src)

let on_receive t handler = t.recv_handlers <- handler :: t.recv_handlers

let read t pos =
  match Bp_storage.Log_store.get (Unit_node.log t.lead_node) pos with
  | None -> None
  | Some entry -> (
      match Record.decode entry.Bp_storage.Log_store.payload with
      | Ok r -> Some r
      | Error _ -> None)

let read_quorum t pos ~on_result =
  let round = { rpos = pos; answers = []; resolved = false; callback = on_result } in
  t.reads <- round :: t.reads;
  Bp_net.Transport.broadcast t.transport ~dsts:t.pbft_cfg.Bp_pbft.Config.nodes
    ~tag:(Proto.aux_tag t.participant)
    (Proto.encode (Proto.Read_query { pos }))

let read_linearizable t pos ~on_result =
  (* A committed read marker orders the read after all earlier commits. *)
  log_commit t (Printf.sprintf "_read_marker:%d" pos) ~on_done:(fun () ->
      read_quorum t pos ~on_result)

let submit_record = submit
