open Bp_sim
open Blockplane

(* Cluster-sending (expected-constant WAN path) end-to-end, plus the
   comm daemon's adversarial input handling. The differential property
   at the bottom is the PR's core safety claim: switching the WAN path
   between fi+1-signature bundles and cluster-sending must never change
   the delivered per-source stream — same records, same order, same
   bytes — under loss, duplication, reordering and byzantine nodes. *)

let make_world ?(fi = 1) ?(cluster = true) ?faults ?verify_jobs ?(seed = 91L) ()
    =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper ?faults () in
  let dep =
    Deployment.create ~network:net ~n_participants:2 ~fi
      ~cluster_send:cluster ?verify_jobs
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
     honest): cluster-sending must still deliver the whole stream within
     its 3fi+1 node budget — retry-with-repair, no external help. *)
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
  let engine, net, dep = make_world ~cluster:false ~seed:93L () in
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
  let engine, net, dep = make_world ~cluster:false ~seed:94L () in
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

(* -------- differential: cluster ≡ bundle, byte for byte -------- *)

type profile =
  | Clean
  | Lossy
  | Dup_reorder
  | Withhold
  | Sign_anything
  | Equivocate

let profile_name = function
  | Clean -> "clean"
  | Lossy -> "lossy"
  | Dup_reorder -> "dup+reorder"
  | Withhold -> "withhold"
  | Sign_anything -> "sign-anything"
  | Equivocate -> "equivocate"

let profile_faults = function
  | Clean -> Network.no_faults
  | Lossy -> { Network.no_faults with Network.drop = 0.03; jitter_ms = 2.0 }
  | Dup_reorder ->
      { Network.no_faults with Network.duplicate = 0.05; jitter_ms = 4.0 }
  | Withhold -> { Network.no_faults with Network.drop = 0.01 }
  | Sign_anything -> { Network.no_faults with Network.drop = 0.02 }
  | Equivocate -> Network.no_faults

(* The top fi nodes of each unit: the byzantine ones in every profile
   that has any (the primaries, node 0, stay honest). *)
let byzantine_node ~fi i = i >= 2 * fi + 1

let apply_byzantine profile dep ~fi =
  let n_nodes = (3 * fi) + 1 in
  match profile with
  | Equivocate ->
      (* Cluster-sending signers that attest a forked chain head; in
         bundle mode there is no agent and the run is honest. *)
      List.iter
        (fun p ->
          for i = n_nodes - fi to n_nodes - 1 do
            Option.iter
              (fun agent -> Cluster_send.set_byzantine_equivocate agent true)
              (Unit_node.cluster_agent (Deployment.node dep p i))
          done)
        [ 0; 1 ]
  | Clean | Lossy | Dup_reorder -> ()
  | Withhold ->
      (* Top fi indices comm-muted in both units; primaries honest. *)
      List.iter
        (fun p ->
          for i = n_nodes - fi to n_nodes - 1 do
            Unit_node.set_byzantine_drop_comm (Deployment.node dep p i) true
          done)
        [ 0; 1 ]
  | Sign_anything ->
      List.iter
        (fun p ->
          for i = n_nodes - fi to n_nodes - 1 do
            Unit_node.set_byzantine_sign_anything (Deployment.node dep p i) true
          done)
        [ 0; 1 ]

let run_one ~cluster ~fi ~profile ~verify_jobs ~seed =
  let engine, _net, dep =
    make_world ~fi ~cluster ~faults:(profile_faults profile) ~verify_jobs ~seed
      ()
  in
  apply_byzantine profile dep ~fi;
  let a = payloads "fwd" 8 and b = payloads "rev" 5 in
  send_all (Deployment.api dep 0) ~dest:1 a;
  send_all (Deployment.api dep 1) ~dest:0 b;
  Engine.run ~until:(Time.of_sec 60.0) engine;
  (* Probes the honest nodes' cluster-send agents dropped. *)
  let honest_rejected =
    List.fold_left
      (fun acc p ->
        Array.fold_left ( + ) acc
          (Array.mapi
             (fun i node ->
               match Unit_node.cluster_agent node with
               | Some agent when not (byzantine_node ~fi i) ->
                   (Cluster_send.stats agent).Cluster_send.rejected
               | Some _ | None -> 0)
             (Deployment.nodes_of dep p)))
      0 [ 0; 1 ]
  in
  ( drain (Deployment.api dep 1) ~src:0,
    drain (Deployment.api dep 0) ~src:1,
    a,
    b,
    honest_rejected )

let differential_case ~fi ~profile ~verify_jobs ~seed =
  let c01, c10, a, b, rejected =
    run_one ~cluster:true ~fi ~profile ~verify_jobs ~seed
  in
  let b01, b10, _, _, _ =
    run_one ~cluster:false ~fi ~profile ~verify_jobs ~seed
  in
  (* Both paths must deliver the complete sent stream in order — and
     therefore agree with each other byte for byte. *)
  let tag dir = Printf.sprintf "%s fi=%d vj=%d %s" (profile_name profile) fi
      verify_jobs dir
  in
  check_stream (tag "cluster 0->1") a c01;
  check_stream (tag "cluster 1->0") b c10;
  check_stream (tag "bundle 0->1") a b01;
  check_stream (tag "bundle 1->0") b b10;
  (* The forked heads reached honest destinations and were refused. *)
  if profile = Equivocate then
    Alcotest.(check bool) (tag "forked probes rejected") true (rejected > 0)

let test_differential_matrix () =
  (* The fixed matrix covers every profile at fi = 1 and the heavier
     unit at fi = 2, across modeled verification parallelism 1/2/4 (the
     delivered bytes must be invariant in all of it). *)
  List.iter
    (fun (fi, profile, verify_jobs, seed) ->
      differential_case ~fi ~profile ~verify_jobs ~seed)
    [
      (1, Clean, 1, 201L);
      (1, Lossy, 2, 202L);
      (1, Dup_reorder, 4, 203L);
      (1, Withhold, 1, 204L);
      (1, Sign_anything, 2, 205L);
      (1, Equivocate, 1, 209L);
      (2, Clean, 4, 206L);
      (2, Lossy, 1, 207L);
      (2, Withhold, 2, 208L);
      (2, Equivocate, 2, 210L);
    ]

let prop_differential =
  QCheck.Test.make ~name:"cluster ≡ bundle delivered stream" ~count:6
    QCheck.(
      pair (int_bound 5) (pair (int_bound 1) (int_bound 1000)))
    (fun (p, (fi0, seed)) ->
      let profile =
        match p with
        | 0 -> Clean
        | 1 -> Lossy
        | 2 -> Dup_reorder
        | 3 -> Withhold
        | 4 -> Sign_anything
        | _ -> Equivocate
      in
      let fi = fi0 + 1 in
      differential_case ~fi ~profile ~verify_jobs:1
        ~seed:(Int64.of_int (3000 + seed));
      true)

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
        Alcotest.test_case "differential matrix cluster≡bundle" `Slow
          test_differential_matrix;
        QCheck_alcotest.to_alcotest ~long:true prop_differential;
      ] );
  ]
