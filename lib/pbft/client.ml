open Bp_sim

module Int_map = Map.Make (Int)

type pending = {
  request : Msg.request;
  mutable replies : (int * string) list; (* replica id, result *)
  mutable timer : Engine.timer option;
  on_result : string -> unit;
}

type t = {
  cfg : Config.t;
  transport : Bp_net.Transport.t;
  engine : Engine.t;
  cache : Bp_crypto.Verify_cache.t;
  mutable next_ts : int;
  mutable view_estimate : int;
  mutable pending : pending Int_map.t; (* keyed by ts *)
}

let in_flight t = Int_map.cardinal t.pending

(* A request's envelope and its body as the delivery hint: the replicas
   keep this very request record, op string included. *)
let seal t request =
  Msg.seal_with_hint ~cache:t.cache t.cfg
    ~sender:(Bp_net.Transport.addr t.transport)
    (Msg.Request request)

let send_to_primary t request =
  let primary = Config.primary_of_view t.cfg t.view_estimate in
  let sealed, hint = seal t request in
  Bp_net.Transport.send t.transport ~hint ~dst:t.cfg.Config.nodes.(primary)
    ~tag:t.cfg.Config.tag sealed

let broadcast_request t request =
  let sealed, hint = seal t request in
  Bp_net.Transport.broadcast t.transport ~hint ~dsts:t.cfg.Config.nodes
    ~tag:t.cfg.Config.tag sealed

(* Completion cancels the timer, so it fires only while [p] is pending. *)
let rec arm_timer t p =
  p.timer <-
    Some
      (Engine.schedule t.engine ~after:(Time.scale t.cfg.Config.request_timeout 1.5)
         (fun () ->
           (* Suspect the primary: tell everyone (backups will forward
              and start their own timers, per PBFT). *)
           broadcast_request t p.request;
           arm_timer t p))

let on_reply t body =
  match body with
  | Msg.Reply { view; ts; client; replica; result }
    when Addr.equal client (Bp_net.Transport.addr t.transport) -> (
      t.view_estimate <- Int.max t.view_estimate view;
      match Int_map.find_opt ts t.pending with
      | Some p ->
          if not (List.mem_assoc replica p.replies) then begin
            p.replies <- (replica, result) :: p.replies;
            let matching =
              List.length
                (List.filter (fun (_, r) -> String.equal r result) p.replies)
            in
            if matching >= t.cfg.Config.f + 1 then begin
              (match p.timer with Some timer -> Engine.cancel timer | None -> ());
              t.pending <- Int_map.remove ts t.pending;
              p.on_result result
            end
          end
      | None -> ())
  | _ -> ()

let create ~cache transport cfg =
  let engine = Network.engine (Bp_net.Transport.network transport) in
  let t =
    {
      cfg;
      transport;
      engine;
      cache;
      next_ts = 1;
      view_estimate = 0;
      pending = Int_map.empty;
    }
  in
  Bp_net.Transport.set_handler transport ~tag:(Config.reply_tag cfg)
    (fun ~src:_ ~hint payload ->
      match Msg.verify_envelope ~cache ?hint cfg payload with
      | Ok body -> on_reply t body
      | Error _ -> ());
  t

let submit t ?(kind = 0) op ~on_result =
  let ts = t.next_ts in
  t.next_ts <- ts + 1;
  let request =
    Msg.make_request ~cache:t.cache t.cfg
      ~client:(Bp_net.Transport.addr t.transport)
      ~ts ~kind ~op
  in
  let p = { request; replies = []; timer = None; on_result } in
  t.pending <- Int_map.add ts p t.pending;
  send_to_primary t request;
  arm_timer t p
