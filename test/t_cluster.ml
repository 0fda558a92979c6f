open Bp_sim
open Blockplane

(* The inter-unit send path (fi+1-signature bundles, §IV-C) end to
   end, plus the comm daemon's adversarial input handling. The fault
   matrix at the bottom is the path's delivery claim: the delivered
   per-source stream is exactly the sent one — same records, same order,
   same bytes — under loss, duplication, reordering and byzantine
   nodes. *)

let make_world ?(fi = 1) ?faults ?(seed = 91L) () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper ?faults () in
  let dep =
    Deployment.create ~network:net ~n_participants:2 ~fi
      ~app:(fun () -> App.make (module App.Null))
      ()
  in
  (engine, net, dep)

let payloads tag n = List.init n (fun i -> Printf.sprintf "%s-%d" tag i)

let send_all api ~dest msgs =
  List.iter (fun m -> Api.send api ~dest m ~on_done:ignore) msgs

let drain api ~src =
  let rec go acc =
    match Api.receive api ~src with
    | Some m -> go (m :: acc)
    | None -> List.rev acc
  in
  go []

let check_stream name expected got =
  Alcotest.(check (list string)) name expected got

(* -------- clean delivery, fi = 1 -------- *)

let test_clean_fi1 () =
  let engine, _net, dep = make_world ~fi:1 () in
  let a = payloads "a" 10 and b = payloads "b" 7 in
  send_all (Deployment.api dep 0) ~dest:1 a;
  send_all (Deployment.api dep 1) ~dest:0 b;
  Engine.run ~until:(Time.of_sec 10.0) engine;
  check_stream "0->1 stream" a (drain (Deployment.api dep 1) ~src:0);
  check_stream "1->0 stream" b (drain (Deployment.api dep 0) ~src:1);
  Alcotest.(check bool) "unit 0 logs agree" true (Deployment.logs_agree dep 0);
  Alcotest.(check bool) "unit 1 logs agree" true (Deployment.logs_agree dep 1)

(* -------- loss + withholding, fi = 2 -------- *)

let test_loss_withholding_fi2 () =
  (* 3% loss and fi comm-muted nodes per unit (top indices; primaries
     honest): the daemon must still deliver the whole stream within its
     3fi+1 node budget — retries against rotating destination nodes, no
     external help. *)
  let faults = { Network.no_faults with Network.drop = 0.03 } in
  let engine, _net, dep = make_world ~fi:2 ~faults ~seed:92L () in
  let n_nodes = 7 in
  List.iter
    (fun p ->
      for i = n_nodes - 2 to n_nodes - 1 do
        Unit_node.set_byzantine_drop_comm (Deployment.node dep p i) true
      done)
    [ 0; 1 ];
  let a = payloads "wa" 8 in
  send_all (Deployment.api dep 0) ~dest:1 a;
  Engine.run ~until:(Time.of_sec 30.0) engine;
  check_stream "0->1 stream under loss+withholding" a
    (drain (Deployment.api dep 1) ~src:0)

(* -------- adversarial daemon inputs -------- *)

(* A transport at an address no honest node occupies, speaking the
   destination datacenter's aux tag — exactly what a compromised box
   inside the facility could emit. *)
let attacker net ~dc = Bp_net.Transport.create net (Addr.make ~dc ~idx:95)

let attacker_send tx ~dc msg =
  Bp_net.Transport.send tx
    ~dst:(Addr.make ~dc ~idx:0)
    ~tag:(Proto.aux_tag dc) (Proto.encode msg)

let test_ack_replay_and_forgery () =
  (* Duplicate, out-of-order and forged cumulative acks must neither
     rewind nor fast-forward the daemon's frontier: replays are stale
     (comm_seq <= acked), forgeries exceed what the daemon has seen
     committed (comm_seq > highest). *)
  let engine, net, dep = make_world ~seed:93L () in
  let atk = attacker net ~dc:0 in
  let a = payloads "ack" 3 in
  send_all (Deployment.api dep 0) ~dest:1 a;
  Engine.run ~until:(Time.of_sec 10.0) engine;
  let daemon = Deployment.daemon dep ~src:0 ~dest:1 in
  (* comm_seq is 0-based; the cumulative frontier after records 0..2. *)
  Alcotest.(check int) "all three acked" 2 (Comm_daemon.acked daemon);
  (* Replayed ack (duplicate / out of order), then a forged one far
     beyond the stream. *)
  attacker_send atk ~dc:0 (Proto.Ack { from_participant = 1; comm_seq = 1 });
  attacker_send atk ~dc:0 (Proto.Ack { from_participant = 1; comm_seq = 999 });
  Engine.run ~until:(Time.of_sec 6.0) engine;
  Alcotest.(check int) "frontier unmoved by replay/forgery" 2
    (Comm_daemon.acked daemon);
  (* The daemon still works afterwards. *)
  Api.send (Deployment.api dep 0) ~dest:1 "post-attack" ~on_done:ignore;
  Engine.run ~until:(Time.of_sec 20.0) engine;
  Alcotest.(check int) "fourth record delivered" 3 (Comm_daemon.acked daemon);
  check_stream "stream intact" (a @ [ "post-attack" ])
    (drain (Deployment.api dep 1) ~src:0)

let test_junk_sign_response () =
  (* Garbage signatures under real node identities, racing the honest
     unit round: if the daemon counted them, the bundle would carry
     invalid proofs and the destination would reject the record. The
     daemon verifies before counting, so delivery completes. *)
  let engine, net, dep = make_world ~seed:94L () in
  let atk = attacker net ~dc:0 in
  let identities =
    Array.to_list (Deployment.nodes_of dep 0)
    |> List.map Unit_node.identity
  in
  (* Inject junk every 200us through the window where the daemon is
     collecting the unit round for comm_seq 1. *)
  for k = 1 to 25 do
    ignore
      (Engine.schedule engine
         ~after:(Time.of_ms (0.2 *. float_of_int k))
         (fun () ->
           List.iter
             (fun identity ->
               attacker_send atk ~dc:0
                 (Proto.Sign_response
                    {
                      dest = 1;
                      comm_seq = 1;
                      identity;
                      signature = "junk-signature";
                    }))
             identities))
  done;
  Api.send (Deployment.api dep 0) ~dest:1 "signed-for-real" ~on_done:ignore;
  Engine.run ~until:(Time.of_sec 10.0) engine;
  check_stream "junk signatures never counted" [ "signed-for-real" ]
    (drain (Deployment.api dep 1) ~src:0)

(* -------- fault matrix: the delivered stream is the sent one -------- *)

type profile = Clean | Lossy | Dup_reorder | Withhold | Sign_anything

let profile_name = function
  | Clean -> "clean"
  | Lossy -> "lossy"
  | Dup_reorder -> "dup+reorder"
  | Withhold -> "withhold"
  | Sign_anything -> "sign-anything"

let profile_faults = function
  | Clean -> Network.no_faults
  | Lossy -> { Network.no_faults with Network.drop = 0.03; jitter_ms = 2.0 }
  | Dup_reorder ->
      { Network.no_faults with Network.duplicate = 0.05; jitter_ms = 4.0 }
  | Withhold -> { Network.no_faults with Network.drop = 0.01 }
  | Sign_anything -> { Network.no_faults with Network.drop = 0.02 }

(* The top fi nodes of each unit are the byzantine ones in every profile
   that has any (the primaries, node 0, stay honest). *)
let apply_byzantine profile dep ~fi =
  let n_nodes = (3 * fi) + 1 in
  let each_byzantine f =
    List.iter
      (fun p ->
        for i = n_nodes - fi to n_nodes - 1 do
          f (Deployment.node dep p i) true
        done)
      [ 0; 1 ]
  in
  match profile with
  | Clean | Lossy | Dup_reorder -> ()
  | Withhold -> each_byzantine Unit_node.set_byzantine_drop_comm
  | Sign_anything -> each_byzantine Unit_node.set_byzantine_sign_anything

let fault_case ~fi ~profile ~seed =
  let engine, _net, dep =
    make_world ~fi ~faults:(profile_faults profile) ~seed ()
  in
  apply_byzantine profile dep ~fi;
  let a = payloads "fwd" 8 and b = payloads "rev" 5 in
  send_all (Deployment.api dep 0) ~dest:1 a;
  send_all (Deployment.api dep 1) ~dest:0 b;
  Engine.run ~until:(Time.of_sec 60.0) engine;
  let tag dir = Printf.sprintf "%s fi=%d %s" (profile_name profile) fi dir in
  check_stream (tag "0->1") a (drain (Deployment.api dep 1) ~src:0);
  check_stream (tag "1->0") b (drain (Deployment.api dep 0) ~src:1)

let test_fault_matrix () =
  (* Every profile at fi = 1 and the heavier unit at fi = 2. *)
  List.iter
    (fun (fi, profile, seed) -> fault_case ~fi ~profile ~seed)
    [
      (1, Clean, 201L);
      (1, Lossy, 202L);
      (1, Dup_reorder, 203L);
      (1, Withhold, 204L);
      (1, Sign_anything, 205L);
      (2, Clean, 206L);
      (2, Lossy, 207L);
      (2, Withhold, 208L);
    ]

let prop_fault_stream =
  QCheck.Test.make ~name:"bundle delivered stream under faults" ~count:6
    QCheck.(pair (int_bound 4) (pair (int_bound 1) (int_bound 1000)))
    (fun (p, (fi0, seed)) ->
      let profile =
        match p with
        | 0 -> Clean
        | 1 -> Lossy
        | 2 -> Dup_reorder
        | 3 -> Withhold
        | _ -> Sign_anything
      in
      fault_case ~fi:(fi0 + 1) ~profile ~seed:(Int64.of_int (3000 + seed));
      true)

(* -------- crash of a destination node under load -------- *)

(* All 12 pairs of a four-participant fi = fg = 1 world send every 2 ms
   for 400 ms; node (1,1), unit 1's view-1 primary, crashes at 200 ms.
   Algorithm 2's retry (every tick, the next destination node) must
   still deliver every stream exactly once and in order, with no
   delivery stuck for 3 s. The bound catches a retry cadence that backs
   off while a pair makes no progress (3.56 s on pair 3->1 here); the
   ~2.9 s that remains comes from unit 1's view-change cascade. *)
let test_crash_under_load () =
  let { Bp_harness.Runner.engine; net; dep } =
    Bp_harness.Runner.fresh_world ~fi:1 ~fg:1 ~seed:1L ~n_participants:4 ()
  in
  let n = 4 and per_pair = 200 in
  let pair ~src ~dst = (src * n) + dst in
  let sent_at = Array.make_matrix (n * n) per_pair 0.0 in
  let got = Array.make (n * n) 0 and misdelivered = ref 0 in
  let worst = ref 0.0 in
  for dst = 0 to n - 1 do
    Api.on_receive (Deployment.api dep dst) (fun ~src payload ->
        let p = pair ~src ~dst in
        let k = got.(p) in
        if k < per_pair && String.equal payload (Printf.sprintf "%d>%d#%d" src dst k)
        then begin
          got.(p) <- k + 1;
          worst := Float.max !worst (Time.to_ms (Engine.now engine) -. sent_at.(p).(k))
        end
        else incr misdelivered)
  done;
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        for k = 0 to per_pair - 1 do
          let at = (float_of_int ((4 * src) + dst) *. 0.1) +. (2.0 *. float_of_int k) in
          sent_at.(pair ~src ~dst).(k) <- at;
          ignore
            (Engine.schedule_at engine (Time.of_ms at) (fun () ->
                 Api.send (Deployment.api dep src) ~dest:dst
                   (Printf.sprintf "%d>%d#%d" src dst k) ~on_done:ignore))
        done
    done
  done;
  ignore
    (Engine.schedule_at engine (Time.of_ms 200.0) (fun () ->
         Network.crash net (Addr.make ~dc:1 ~idx:1)));
  Engine.run ~until:(Time.of_sec 30.0) engine;
  Alcotest.(check int) "nothing misdelivered" 0 !misdelivered;
  Alcotest.(check int) "all delivered" (n * (n - 1) * per_pair)
    (Array.fold_left ( + ) 0 got);
  if !worst >= 3000.0 then
    Alcotest.failf "worst send->receive latency %.0f ms (bound 3000 ms)" !worst

let suite =
  [
    ( "cluster_send",
      [
        Alcotest.test_case "clean fi=1 both directions" `Quick test_clean_fi1;
        Alcotest.test_case "loss + withholding fi=2" `Quick
          test_loss_withholding_fi2;
        Alcotest.test_case "ack replay and forgery ignored" `Quick
          test_ack_replay_and_forgery;
        Alcotest.test_case "junk sign_response rejected" `Quick
          test_junk_sign_response;
        Alcotest.test_case "fault matrix delivers the sent stream" `Slow
          test_fault_matrix;
        QCheck_alcotest.to_alcotest ~long:true prop_fault_stream;
        Alcotest.test_case "crash of (1,1) under 12-pair load" `Quick
          test_crash_under_load;
      ] );
  ]
