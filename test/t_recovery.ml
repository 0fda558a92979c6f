open Bp_sim
open Blockplane

let make_world ?(fi = 1) ?(fg = 0) ?faults ?(seed = 71L) ?cache
    ?(app = (module App.Null : App.S)) () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper ?faults () in
  let dep =
    Deployment.create ~network:net ~n_participants:4 ~fi ~fg ?cache ~app ()
  in
  (engine, net, dep)

(* ---------- WAL persistence and crash recovery (§III-C) ---------- *)

(* Small ops and ops of 256 B and more: the large ones take the digest
   memo path live (the app reuses the signing path's digest) and a plain
   hash on replay, and both must give the same state. *)
let event i =
  let pad = match i mod 3 with 0 -> 0 | 1 -> 300 | _ -> 5000 in
  Printf.sprintf "event-%d" i ^ String.make pad 'p'

let test_wal_replay_rebuilds_state () =
  let engine, _net, dep = make_world () in
  let api = Deployment.api dep 0 in
  for i = 1 to 10 do
    Api.log_commit api (event i) ~on_done:ignore
  done;
  Engine.run ~until:(Time.of_sec 3.0) engine;
  let node = Deployment.node dep 0 1 in
  Alcotest.(check bool) "live node memoized op digests" true
    ((Bp_crypto.Verify_cache.instance_counters (Unit_node.vcache node))
       .Bp_crypto.Verify_cache.digest_misses
    > 0);
  let image = Unit_node.wal_image node in
  let fresh = App.make (module App.Null) ~participant:0 ~n_participants:4 in
  let count, tail = Unit_node.replay ~image ~app:fresh in
  Alcotest.(check int) "all records recovered" 10 count;
  Alcotest.(check bool) "clean tail" true (tail = Ok ());
  Alcotest.(check string) "recovered state = live state"
    (Bp_util.Hex.encode (Unit_node.app_digest node))
    (Bp_util.Hex.encode (App.digest fresh))

let test_wal_replay_torn_tail () =
  let engine, _net, dep = make_world () in
  let api = Deployment.api dep 0 in
  for i = 1 to 6 do
    Api.log_commit api (Printf.sprintf "event-%d" i) ~on_done:ignore
  done;
  Engine.run ~until:(Time.of_sec 3.0) engine;
  let node = Deployment.node dep 0 0 in
  let image = Unit_node.wal_image node in
  (* A crash mid-write: lose the last few bytes. *)
  let torn = String.sub image 0 (String.length image - 3) in
  let fresh = App.make (module App.Null) ~participant:0 ~n_participants:4 in
  let count, tail = Unit_node.replay ~image:torn ~app:fresh in
  Alcotest.(check int) "durable prefix only" 5 count;
  Alcotest.(check bool) "tail reported corrupt" true (tail = Error `Corrupt_tail);
  (* The recovered state matches an independent replay of the prefix. *)
  let reference = App.make (module App.Null) ~participant:0 ~n_participants:4 in
  List.iter
    (fun encoded ->
      match Record.decode encoded with
      | Ok r -> App.apply reference ~hash:Bp_crypto.Sha256.digest r
      | Error _ -> ())
    (fst (Bp_storage.Wal.recover torn));
  Alcotest.(check string) "prefix state" (App.digest reference) (App.digest fresh)

(* The WAL image is the Local Log framed: [Frame.seal] of every log
   payload, in log order, with no second copy of the log behind it. It
   replays to the live state, at the sender (commit and communication
   records) and at the receiver (receive records). *)
let test_wal_image_frames_local_log () =
  let engine, _net, dep = make_world ~seed:79L () in
  let api = Deployment.api dep 0 in
  for i = 1 to 8 do
    Api.log_commit api (event i) ~on_done:ignore
  done;
  Api.send api ~dest:1 (String.make 400 'm') ~on_done:ignore;
  Engine.run ~until:(Time.of_sec 3.0) engine;
  List.iter
    (fun node ->
      let log = Unit_node.log node in
      let n = Bp_storage.Log_store.length log in
      Alcotest.(check bool) "log has entries" true (n > 0);
      let image = Unit_node.wal_image node in
      Alcotest.(check string) "image = sealed log payloads"
        (String.concat ""
           (List.init n (fun i ->
                Bp_codec.Frame.seal (Bp_storage.Log_store.payload_exn log i))))
        image;
      let fresh =
        App.make (module App.Null) ~participant:(Unit_node.participant node)
          ~n_participants:4
      in
      let count, tail = Unit_node.replay ~image ~app:fresh in
      Alcotest.(check int) "every entry replayed" n count;
      Alcotest.(check bool) "clean tail" true (tail = Ok ());
      Alcotest.(check string) "replayed state = live state"
        (Bp_util.Hex.encode (Unit_node.app_digest node))
        (Bp_util.Hex.encode (App.digest fresh)))
    [ Deployment.node dep 0 2; Deployment.node dep 1 1 ]

(* The digest memo only changes which code computes a SHA-256, never its
   value: a run with zero-capacity caches must leave byte-identical logs
   and app states. *)
let test_cache_off_same_digests () =
  let run ~cache =
    let engine, _net, dep = make_world ~seed:77L ~cache () in
    let api = Deployment.api dep 0 in
    for i = 1 to 12 do
      Api.log_commit api (event i) ~on_done:ignore
    done;
    Api.send api ~dest:1 (String.make 400 'm') ~on_done:ignore;
    Engine.run ~until:(Time.of_sec 3.0) engine;
    List.concat_map
      (fun p ->
        Array.to_list
          (Array.map
             (fun node ->
               let log = Unit_node.log node in
               Printf.sprintf "%d/%s/%s"
                 (Bp_storage.Log_store.length log)
                 (Bp_util.Hex.encode (Bp_storage.Log_store.last_digest log))
                 (Bp_util.Hex.encode (Unit_node.app_digest node)))
             (Deployment.nodes_of dep p)))
      [ 0; 1 ]
  in
  let cached = run ~cache:true in
  Alcotest.(check bool) "sender logs hold every commit" true
    (List.for_all
       (fun s -> Scanf.sscanf s "%d/" (fun n -> n >= 13))
       (List.filteri (fun i _ -> i < 4) cached));
  let uncached = run ~cache:false in
  Alcotest.(check (list string)) "log and app digests" cached uncached

(* Replaying a node's WAL image into a fresh instance of its app gives
   the live app digest: the protocol state and, for the apps built on
   [Byzantize], the owed sends and the delivery frontier. *)
let check_replay_digest app node =
  let fresh =
    App.make app ~participant:(Unit_node.participant node) ~n_participants:4
  in
  let count, tail = Unit_node.replay ~image:(Unit_node.wal_image node) ~app:fresh in
  Alcotest.(check int) "every entry replayed"
    (Bp_storage.Log_store.length (Unit_node.log node))
    count;
  Alcotest.(check bool) "clean tail" true (tail = Ok ());
  Alcotest.(check string) "replayed digest = live digest"
    (Bp_util.Hex.encode (Unit_node.app_digest node))
    (Bp_util.Hex.encode (App.digest fresh));
  fresh

let test_wal_covers_receives () =
  (* Received messages are part of durable state: a recovered counter
     replica remembers its increments. *)
  let counter_app = (module Bp_apps.Counter.Protocol : App.S) in
  let engine, _net, dep = make_world ~app:counter_app () in
  let a = Bp_apps.Counter.attach (Deployment.api dep 0) in
  let _b = Bp_apps.Counter.attach (Deployment.api dep 1) in
  Bp_apps.Counter.user_request a ~dest:1 ~on_done:ignore;
  Bp_apps.Counter.user_request a ~dest:1 ~on_done:ignore;
  Engine.run ~until:(Time.of_sec 5.0) engine;
  let node = Deployment.node dep 1 2 in
  Alcotest.(check int) "live counter" 2 (Bp_apps.Counter.value node);
  let fresh = check_replay_digest counter_app node in
  Alcotest.(check string) "recovered counter state"
    (App.describe (Unit_node.app node))
    (App.describe fresh);
  ignore (check_replay_digest counter_app (Deployment.node dep 0 1))

let test_wal_replay_bank_and_paxos () =
  let bank_app = (module Bp_apps.Bank.Ledger : App.S) in
  let engine, _net, dep = make_world ~app:bank_app () in
  let b0 = Bp_apps.Bank.attach (Deployment.api dep 0) in
  let _b1 = Bp_apps.Bank.attach (Deployment.api dep 1) in
  Bp_apps.Bank.open_account b0 "alice" 100 ~on_done:(fun () ->
      Bp_apps.Bank.transfer b0 ~from_account:"alice" ~dest:1 ~to_account:"carol" 40
        ~on_done:ignore);
  Engine.run ~until:(Time.of_sec 5.0) engine;
  Alcotest.(check (option int)) "credited" (Some 40)
    (Bp_apps.Bank.balance (Deployment.node dep 1 0) "carol");
  ignore (check_replay_digest bank_app (Deployment.node dep 0 2));
  ignore (check_replay_digest bank_app (Deployment.node dep 1 3));
  let paxos_app = (module Bp_apps.Byz_paxos.Protocol : App.S) in
  let engine, _net, dep = make_world ~app:paxos_app () in
  let drivers =
    Array.init 4 (fun p ->
        Bp_apps.Byz_paxos.attach (Deployment.api dep p) ~n_participants:4)
  in
  let decided = ref false in
  Bp_apps.Byz_paxos.elect drivers.(2) ~on_elected:(fun ok ->
      if ok then
        Bp_apps.Byz_paxos.replicate drivers.(2) "v" ~on_result:(fun ok -> decided := ok));
  Engine.run ~until:(Time.of_sec 5.0) engine;
  Alcotest.(check bool) "decided" true !decided;
  for p = 0 to 3 do
    ignore (check_replay_digest paxos_app (Deployment.node dep p 1))
  done

let test_crashed_replica_catches_up () =
  (* A node that misses traffic while crashed is brought back up to date
     by the transport's retransmissions once it recovers. *)
  let engine, net, dep = make_world () in
  let api = Deployment.api dep 0 in
  let straggler = Addr.make ~dc:0 ~idx:3 in
  Network.crash net straggler;
  let committed = ref 0 in
  for i = 1 to 5 do
    Api.log_commit api (Printf.sprintf "while-down-%d" i) ~on_done:(fun () ->
        incr committed)
  done;
  Engine.run ~until:(Time.of_sec 3.0) engine;
  Alcotest.(check int) "progress with one node down" 5 !committed;
  Alcotest.(check int) "straggler log empty" 0
    (Bp_storage.Log_store.length (Unit_node.log (Deployment.node dep 0 3)));
  Network.recover net straggler;
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check int) "straggler caught up" 5
    (Bp_storage.Log_store.length (Unit_node.log (Deployment.node dep 0 3)));
  Alcotest.(check bool) "unit agreement restored" true (Deployment.logs_agree dep 0)

let test_state_transfer_after_amnesia () =
  (* A replica reboots with empty state (its process died; messages sent
     meanwhile were consumed by the dead process's transport and are gone).
     The state-transfer protocol — triggered by peers' checkpoints — must
     rebuild it from f+1 vouched batches. *)
  let engine = Engine.create ~seed:78L () in
  let net = Network.create engine Topology.aws_paper () in
  let keystore = Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine)) in
  let addrs = Array.init 4 (fun i -> Addr.make ~dc:0 ~idx:i) in
  let cfg =
    Bp_pbft.Config.make ~nodes:addrs ~keystore ~checkpoint_interval:8 ~batch_max:4 ()
  in
  let transports = Array.map (fun a -> Bp_net.Transport.create net a) addrs in
  let mk i =
    Bp_pbft.Replica.create ~cache:(T_pbft.no_cache cfg) transports.(i) cfg ~id:i
      ~execute:(fun ~seq:_ r -> "ok:" ^ r.Bp_pbft.Msg.op)
      ()
  in
  let replicas = Array.init 4 mk in
  let client =
    Bp_pbft.Client.create ~cache:(T_pbft.no_cache cfg)
      (Bp_net.Transport.create net (Addr.make ~dc:0 ~idx:100))
      cfg
  in
  (* Node 3's process dies: handler detached, state lost. *)
  Bp_pbft.Replica.stop replicas.(3);
  Alcotest.(check bool) "a stopped replica is not normal" false
    (Bp_pbft.Replica.is_normal replicas.(3));
  let frozen r =
    let b = Bp_pbft.Replica.batch_stats r in
    [ Bp_pbft.Replica.last_executed r; b.batches_cut; b.ops_proposed;
      b.window_stalls; b.hold_deferrals ]
  in
  let at_stop = frozen replicas.(3) in
  let served = ref 0 in
  let submit_range lo hi =
    let rec go i =
      if i <= hi then
        Bp_pbft.Client.submit client (Printf.sprintf "op%d" i) ~on_result:(fun _ ->
            incr served;
            go (i + 1))
    in
    go lo
  in
  submit_range 1 40;
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check int) "progress while node 3 dead" 40 !served;
  Alcotest.(check (list int)) "the stopped replica's state did not move" at_stop
    (frozen replicas.(3));
  (* Reboot node 3 with a fresh, empty replica. *)
  let rebooted = mk 3 in
  (* Fresh traffic produces new checkpoints, which trigger the fetch. *)
  submit_range 41 60;
  Engine.run ~until:(Time.of_sec 30.0) engine;
  Alcotest.(check int) "all served" 60 !served;
  Alcotest.(check bool)
    (Printf.sprintf "rebooted replica caught up (last_exec=%d)"
       (Bp_pbft.Replica.last_executed rebooted))
    true
    (Bp_pbft.Replica.last_executed rebooted
    >= Bp_pbft.Replica.last_executed replicas.(0) - 4);
  Alcotest.(check string) "execution chain agrees at a common prefix"
    (Bp_util.Hex.encode (Bp_pbft.Replica.exec_chain replicas.(0)))
    (Bp_util.Hex.encode (Bp_pbft.Replica.exec_chain replicas.(1)))

(* ---------- further byzantine scenarios ---------- *)

let test_lying_reply_masked_by_quorum () =
  (* One byzantine replica answers clients with garbage results; the
     client's f+1 matching-replies rule masks it. *)
  let engine = Engine.create ~seed:72L () in
  let net = Network.create engine Topology.aws_paper () in
  let keystore = Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine)) in
  let addrs = Array.init 4 (fun i -> Addr.make ~dc:2 ~idx:i) in
  let cfg = Bp_pbft.Config.make ~nodes:addrs ~keystore () in
  Array.iteri
    (fun i addr ->
      let transport = Bp_net.Transport.create net addr in
      let execute ~seq:_ (r : Bp_pbft.Msg.request) =
        if i = 2 then "LIES" else "ok:" ^ r.Bp_pbft.Msg.op
      in
      ignore
        (Bp_pbft.Replica.create ~cache:(T_pbft.no_cache cfg) transport cfg ~id:i
           ~execute ()))
    addrs;
  let client =
    Bp_pbft.Client.create ~cache:(T_pbft.no_cache cfg)
      (Bp_net.Transport.create net (Addr.make ~dc:2 ~idx:100))
      cfg
  in
  let result = ref "" in
  Bp_pbft.Client.submit client "probe" ~on_result:(fun r -> result := r);
  Engine.run ~until:(Time.of_sec 3.0) engine;
  Alcotest.(check string) "honest majority answer wins" "ok:probe" !result

let test_reserve_not_fooled_by_inflated_claim () =
  (* A byzantine destination node claims it has received far more than it
     has, trying to hide a malicious daemon's suppression. The reserve's
     (f+1)-th-largest rule ignores the inflated claim. *)
  let engine, net, dep = make_world ~seed:73L () in
  ignore net;
  let api0 = Deployment.api dep 0 in
  (* Kill the real daemon so only the reserve can deliver. *)
  Comm_daemon.set_enabled (Deployment.daemon dep ~src:0 ~dest:2) false;
  (* A byzantine node at the destination floods the source's reserves
     with inflated progress reports. *)
  let byz = Deployment.node dep 2 3 in
  let liar_timer =
    Engine.periodic engine ~every:(Time.of_ms 100.0) (fun () ->
        List.iter
          (fun reserve_host ->
            Bp_net.Transport.send (Unit_node.transport byz)
              ~dst:(Unit_node.addr reserve_host) ~tag:(Proto.aux_tag 0)
              (Proto.encode (Proto.Reserve_reply { src = 0; last = 1_000_000 })))
          [ Deployment.node dep 0 1; Deployment.node dep 0 2 ])
  in
  let got = ref [] in
  Api.on_receive (Deployment.api dep 2) (fun ~src:_ p -> got := p :: !got);
  Api.send api0 ~dest:2 "must-arrive" ~on_done:ignore;
  Engine.run ~until:(Time.of_sec 20.0) engine;
  Engine.cancel liar_timer;
  Alcotest.(check (list string)) "reserve still promoted and delivered"
    [ "must-arrive" ] !got;
  Alcotest.(check bool) "promotion happened despite the liar" true
    (List.exists Reserve.promoted (Deployment.reserves dep ~src:0 ~dest:2))

let test_replayed_transmission_is_dropped () =
  (* Lemma 2's no-duplicates clause: replaying a legitimate, fully signed
     transmission record does not deliver it twice. *)
  let engine, _net, dep = make_world ~seed:74L () in
  let api0 = Deployment.api dep 0 in
  let api1 = Deployment.api dep 1 in
  let got = ref 0 in
  Api.on_receive api1 (fun ~src:_ _ -> incr got);
  Api.send api0 ~dest:1 "once" ~on_done:ignore;
  Engine.run ~until:(Time.of_sec 2.0) engine;
  Alcotest.(check int) "delivered" 1 !got;
  (* Capture the genuine signed record from the destination's log and
     replay it at another destination node. *)
  let log1 = Unit_node.log (Deployment.node dep 1 0) in
  let captured = ref None in
  Bp_storage.Log_store.iter_from log1 0 (fun entry ->
      match Record.decode entry.Bp_storage.Log_store.payload with
      | Ok (Record.Recv tr) -> captured := Some tr
      | _ -> ());
  (match !captured with
  | None -> Alcotest.fail "no transmission in log"
  | Some tr ->
      let attacker = Deployment.node dep 1 3 in
      Bp_net.Transport.send (Unit_node.transport attacker)
        ~dst:(Deployment.unit_addrs dep 1).(2)
        ~tag:(Proto.aux_tag 1)
        (Proto.encode (Proto.Transmit { transmission = tr })));
  Engine.run ~until:(Time.of_sec 6.0) engine;
  Alcotest.(check int) "still exactly once" 1 !got;
  Alcotest.(check bool) "destination unit consistent" true (Deployment.logs_agree dep 1)

let test_wrong_destination_transmission_rejected () =
  (* A transmission addressed to participant 2 delivered to participant 1
     must be refused outright. *)
  let engine, _net, dep = make_world ~seed:75L () in
  let api0 = Deployment.api dep 0 in
  Api.send api0 ~dest:2 "for-two" ~on_done:ignore;
  Engine.run ~until:(Time.of_sec 2.0) engine;
  let log2 = Unit_node.log (Deployment.node dep 2 0) in
  let captured = ref None in
  Bp_storage.Log_store.iter_from log2 0 (fun entry ->
      match Record.decode entry.Bp_storage.Log_store.payload with
      | Ok (Record.Recv tr) -> captured := Some tr
      | _ -> ());
  (match !captured with
  | None -> Alcotest.fail "no transmission captured"
  | Some tr ->
      let attacker = Deployment.node dep 2 3 in
      Bp_net.Transport.send (Unit_node.transport attacker)
        ~dst:(Deployment.unit_addrs dep 1).(0)
        ~tag:(Proto.aux_tag 1)
        (Proto.encode (Proto.Transmit { transmission = tr })));
  Engine.run ~until:(Time.of_sec 6.0) engine;
  Alcotest.(check int) "participant 1 received nothing" (-1)
    (Unit_node.last_received (Deployment.node dep 1 0) ~src:0)

let test_fi2_tolerates_two_byzantine () =
  (* A unit sized for fi=2 (7 nodes) masks two byzantine members. *)
  let engine, _net, dep = make_world ~fi:2 ~seed:76L () in
  Bp_pbft.Replica.suppress_commit_votes
    (Unit_node.replica (Deployment.node dep 0 5))
    true;
  Unit_node.set_byzantine_sign_anything (Deployment.node dep 0 6) true;
  let api0 = Deployment.api dep 0 in
  let api1 = Deployment.api dep 1 in
  let got = ref [] in
  Api.on_receive api1 (fun ~src:_ p -> got := p :: !got);
  let committed = ref 0 in
  for i = 1 to 3 do
    Api.log_commit api0 (Printf.sprintf "c%d" i) ~on_done:(fun () -> incr committed);
    Api.send api0 ~dest:1 (Printf.sprintf "m%d" i) ~on_done:ignore
  done;
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check int) "commits" 3 !committed;
  Alcotest.(check (list string)) "messages" [ "m1"; "m2"; "m3" ] (List.rev !got);
  Alcotest.(check bool) "agreement" true (Deployment.logs_agree dep 0)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "recovery.wal",
      [
        tc "replay rebuilds state" test_wal_replay_rebuilds_state;
        tc "torn tail recovers prefix" test_wal_replay_torn_tail;
        tc "image frames the local log" test_wal_image_frames_local_log;
        tc "cache off gives identical digests" test_cache_off_same_digests;
        tc "receives are durable" test_wal_covers_receives;
        tc "bank and paxos worlds replay" test_wal_replay_bank_and_paxos;
        tc "crashed replica catches up" test_crashed_replica_catches_up;
        tc "state transfer after amnesiac reboot" test_state_transfer_after_amnesia;
      ] );
    ( "byzantine.more",
      [
        tc "lying reply masked by quorum" test_lying_reply_masked_by_quorum;
        tc "reserve ignores inflated claims" test_reserve_not_fooled_by_inflated_claim;
        tc "replayed transmission dropped" test_replayed_transmission_is_dropped;
        tc "wrong-destination transmission rejected" test_wrong_destination_transmission_rejected;
        tc "fi=2 masks two byzantine nodes" test_fi2_tolerates_two_byzantine;
      ] );
  ]
