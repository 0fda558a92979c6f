open Bp_sim

type peer_state = { mutable last_heard : Time.t; mutable suspect : bool }

type t = {
  transport : Transport.t;
  engine : Engine.t;
  peers : peer_state Addr.Tbl.t;
  timeout : Time.t;
  on_suspect : Addr.t -> unit;
  on_restore : Addr.t -> unit;
  mutable timers : Engine.timer list;
}

let ping_tag = "_hb.ping"
let pong_tag = "_hb.pong"

let serve transport =
  Transport.set_handler transport ~tag:ping_tag (fun ~src ~hint:_ _ ->
      Transport.send transport ~reliable:false ~dst:src ~tag:pong_tag "")

let create transport ~peers ~period ~timeout ~on_suspect ?(on_restore = ignore) () =
  let engine = Network.engine (Transport.network transport) in
  let t =
    {
      transport;
      engine;
      peers = Addr.Tbl.create 8;
      timeout;
      on_suspect;
      on_restore;
      timers = [];
    }
  in
  let now = Engine.now engine in
  List.iter
    (fun p -> Addr.Tbl.replace t.peers p { last_heard = now; suspect = false })
    peers;
  serve transport;
  Transport.set_handler transport ~tag:pong_tag (fun ~src ~hint:_ _ ->
      match Addr.Tbl.find_opt t.peers src with
      | None -> ()
      | Some st ->
          st.last_heard <- Engine.now engine;
          if st.suspect then begin
            st.suspect <- false;
            t.on_restore src
          end);
  let ping_timer =
    Engine.periodic engine ~every:period (fun () ->
        (* Collect in table-iteration order (matching the old per-peer
           send loop), then ping with one shared frame. *)
        let dsts = ref [] in
        Addr.Tbl.iter (fun p _ -> dsts := p :: !dsts) t.peers;
        Transport.broadcast transport ~reliable:false
          ~dsts:(Array.of_list (List.rev !dsts))
          ~tag:ping_tag "")
  in
  let check_timer =
    Engine.periodic engine ~every:period (fun () ->
        let now = Engine.now engine in
        Addr.Tbl.iter
          (fun p st ->
            if (not st.suspect) && Time.(Time.diff now st.last_heard > t.timeout)
            then begin
              st.suspect <- true;
              t.on_suspect p
            end)
          t.peers)
  in
  t.timers <- [ ping_timer; check_timer ];
  t

let suspected t addr =
  match Addr.Tbl.find_opt t.peers addr with
  | Some st -> st.suspect
  | None -> false

let stop t =
  List.iter Engine.cancel t.timers;
  t.timers <- [];
  Transport.clear_handler t.transport ~tag:ping_tag;
  Transport.clear_handler t.transport ~tag:pong_tag
