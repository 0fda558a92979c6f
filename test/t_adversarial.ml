open Bp_sim
open Blockplane

let make_world ?(fi = 1) ?(fg = 0) ?scheme ?(seed = 81L)
    ?(app = (module App.Null : App.S)) () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper () in
  let dep =
    Deployment.create ~network:net ~n_participants:4 ~fi ~fg ?scheme ~app ()
  in
  (engine, net, dep)

let test_altered_payload_rejected () =
  (* A byzantine relay swaps the payload of a correctly signed
     transmission record; the signatures cover the payload digest, so the
     destination must reject it. *)
  let engine, _net, dep = make_world () in
  let api0 = Deployment.api dep 0 in
  Api.send api0 ~dest:1 "authentic" ~on_done:ignore;
  Engine.run ~until:(Time.of_sec 2.0) engine;
  (* Capture the signed record, then tamper with the payload. *)
  let log1 = Unit_node.log (Deployment.node dep 1 0) in
  let captured = ref None in
  Bp_storage.Log_store.iter_from log1 0 (fun entry ->
      match Record.decode entry.Bp_storage.Log_store.payload with
      | Ok (Record.Recv tr) -> captured := Some tr
      | _ -> ());
  let tr = Option.get !captured in
  let forged =
    { tr with Record.tpayload = "tampered!"; tcomm_seq = tr.Record.tcomm_seq + 1 }
  in
  let attacker = Deployment.node dep 0 3 in
  Bp_net.Transport.send (Unit_node.transport attacker)
    ~dst:(Deployment.unit_addrs dep 1).(0)
    ~tag:(Proto.aux_tag 1)
    (Proto.encode (Proto.Transmit { transmission = forged }));
  Engine.run ~until:(Time.of_sec 6.0) engine;
  Alcotest.(check int) "tampered copy never accepted" 0
    (Unit_node.last_received (Deployment.node dep 1 0) ~src:0);
  Alcotest.(check (option string)) "only the authentic message" (Some "authentic")
    (Api.receive (Deployment.api dep 1) ~src:0)

let test_garbage_resilience_real () =
  let engine, net, dep = make_world ~seed:82L () in
  let rng = Bp_util.Rng.create 83L in
  let attacker = Bp_net.Transport.create net (Addr.make ~dc:0 ~idx:99) in
  let tags =
    [ "u0"; "u0.reply"; "u0.aux"; "u1"; "u1.aux"; "paxos"; "nonsense" ]
  in
  for _ = 1 to 200 do
    let tag = List.nth tags (Bp_util.Rng.int rng (List.length tags)) in
    let dst =
      Addr.make ~dc:(Bp_util.Rng.int rng 4) ~idx:(Bp_util.Rng.int rng 4)
    in
    Bp_net.Transport.send attacker ~dst ~tag
      (Bytes.to_string (Bp_util.Rng.bytes rng (Bp_util.Rng.int rng 200)))
  done;
  Engine.run ~until:(Time.of_sec 2.0) engine;
  (* The system still works afterwards. *)
  let ok = ref false in
  Api.log_commit (Deployment.api dep 0) "still-alive" ~on_done:(fun () -> ok := true);
  let got = ref None in
  Api.on_receive (Deployment.api dep 1) (fun ~src:_ p -> got := Some p);
  Api.send (Deployment.api dep 0) ~dest:1 "post-fuzz" ~on_done:ignore;
  Engine.run ~until:(Time.of_sec 6.0) engine;
  Alcotest.(check bool) "commit works after fuzzing" true !ok;
  Alcotest.(check (option string)) "send works after fuzzing" (Some "post-fuzz") !got;
  Alcotest.(check bool) "unit agreement" true (Deployment.logs_agree dep 0)

let test_hash_based_scheme_end_to_end () =
  (* The whole middleware with real asymmetric (Lamport/Merkle)
     signatures instead of the HMAC registry. *)
  let engine, _net, dep = make_world ~scheme:`Hash_based ~seed:84L () in
  let api0 = Deployment.api dep 0 in
  let got = ref None in
  Api.on_receive (Deployment.api dep 1) (fun ~src:_ p -> got := Some p);
  let committed = ref false in
  Api.log_commit api0 "hash-based-commit" ~on_done:(fun () -> committed := true);
  Api.send api0 ~dest:1 "hash-based-message" ~on_done:ignore;
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check bool) "commit" true !committed;
  Alcotest.(check (option string)) "delivery" (Some "hash-based-message") !got

let test_parallel_sends_to_different_destinations () =
  (* Communication daemons are independent per destination: a slow pair
     (C-I) must not delay a fast pair (C-O). *)
  let engine, _net, dep = make_world ~seed:85L () in
  let api0 = Deployment.api dep 0 in
  let arrival_o = ref Time.zero and arrival_i = ref Time.zero in
  Api.on_receive (Deployment.api dep Topology.dc_oregon) (fun ~src:_ _ ->
      arrival_o := Engine.now engine);
  Api.on_receive (Deployment.api dep Topology.dc_ireland) (fun ~src:_ _ ->
      arrival_i := Engine.now engine);
  Api.send api0 ~dest:Topology.dc_ireland "slow-pair" ~on_done:ignore;
  Api.send api0 ~dest:Topology.dc_oregon "fast-pair" ~on_done:ignore;
  Engine.run ~until:(Time.of_sec 2.0) engine;
  let o = Time.to_ms !arrival_o and i = Time.to_ms !arrival_i in
  Alcotest.(check bool)
    (Printf.sprintf "Oregon %.1fms long before Ireland %.1fms" o i)
    true
    (o < 20.0 && i > 60.0)

let test_pbft_watermark_progression () =
  (* Sequences far beyond the initial watermark window: checkpoints must
     keep the window sliding and commits flowing. *)
  let engine = Engine.create ~seed:86L () in
  let net = Network.create engine Topology.aws_paper () in
  let keystore = Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine)) in
  let addrs = Array.init 4 (fun i -> Addr.make ~dc:0 ~idx:i) in
  let cfg =
    Bp_pbft.Config.make ~nodes:addrs ~keystore ~checkpoint_interval:8
      ~watermark_window:24 ~batch_max:1 ()
  in
  let replicas =
    Array.init 4 (fun i ->
        Bp_pbft.Replica.create ~cache:(T_pbft.no_cache cfg)
          (Bp_net.Transport.create net addrs.(i))
          cfg ~id:i
          ~execute:(fun ~seq:_ _ -> "ok")
          ())
  in
  let client =
    Bp_pbft.Client.create ~cache:(T_pbft.no_cache cfg)
      (Bp_net.Transport.create net (Addr.make ~dc:0 ~idx:100))
      cfg
  in
  let served = ref 0 in
  let rec go i =
    if i <= 100 then
      Bp_pbft.Client.submit client (Printf.sprintf "op%d" i) ~on_result:(fun _ ->
          incr served;
          go (i + 1))
  in
  go 1;
  Engine.run ~until:(Time.of_sec 30.0) engine;
  Alcotest.(check int) "100 ops through a 24-wide window" 100 !served;
  Array.iter
    (fun r ->
      Alcotest.(check bool) "watermark advanced far" true
        (Bp_pbft.Replica.low_watermark r >= 72))
    replicas

let test_pbft_duplicate_request_single_execution () =
  (* The same (client, ts) submitted repeatedly — via broadcast storms —
     executes exactly once; later copies get the cached reply. *)
  let engine = Engine.create ~seed:87L () in
  let net = Network.create engine Topology.aws_paper () in
  let keystore = Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine)) in
  let addrs = Array.init 4 (fun i -> Addr.make ~dc:0 ~idx:i) in
  let cfg = Bp_pbft.Config.make ~nodes:addrs ~keystore () in
  let executions = ref 0 in
  Array.iteri
    (fun i addr ->
      ignore
        (Bp_pbft.Replica.create ~cache:(T_pbft.no_cache cfg)
           (Bp_net.Transport.create net addr)
           cfg ~id:i
           ~execute:(fun ~seq:_ _ ->
             if i = 0 then incr executions;
             "ok")
           ()))
    addrs;
  let ct = Bp_net.Transport.create net (Addr.make ~dc:0 ~idx:100) in
  let client = Bp_pbft.Client.create ~cache:(T_pbft.no_cache cfg) ct cfg in
  let results = ref 0 in
  Bp_pbft.Client.submit client "only-once" ~on_result:(fun _ -> incr results);
  Engine.run ~until:(Time.of_sec 1.0) engine;
  (* Replay the identical request envelope straight at every replica. *)
  let cache = T_pbft.no_cache cfg in
  let r =
    Bp_pbft.Msg.make_request ~cache cfg ~client:(Addr.make ~dc:0 ~idx:100) ~ts:1
      ~kind:0 ~op:"only-once"
  in
  let sealed =
    Bp_pbft.Msg.seal ~cache cfg ~sender:(Addr.make ~dc:0 ~idx:100)
      (Bp_pbft.Msg.Request r)
  in
  Array.iter
    (fun addr -> Bp_net.Transport.send ct ~dst:addr ~tag:"pbft" sealed)
    addrs;
  Engine.run ~until:(Time.of_sec 3.0) engine;
  Alcotest.(check int) "executed exactly once at the primary" 1 !executions;
  Alcotest.(check int) "client resolved once" 1 !results

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "adversarial",
      [
        tc "altered payload rejected" test_altered_payload_rejected;
        tc "garbage traffic resilience" test_garbage_resilience_real;
        tc "hash-based signatures end-to-end" test_hash_based_scheme_end_to_end;
        tc "independent daemons per destination" test_parallel_sends_to_different_destinations;
        tc "pbft watermark progression" test_pbft_watermark_progression;
        tc "pbft duplicate request executes once" test_pbft_duplicate_request_single_execution;
      ] );
  ]
