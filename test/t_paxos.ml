open Bp_sim
open Bp_paxos

let test_ballot_ordering () =
  let b1 = Ballot.next Ballot.zero ~node:2 in
  let b2 = Ballot.next Ballot.zero ~node:3 in
  Alcotest.(check bool) "node breaks ties" true Ballot.(b2 > b1);
  let b3 = Ballot.next b2 ~node:0 in
  Alcotest.(check bool) "round dominates" true Ballot.(b3 > b2);
  Alcotest.(check bool) "zero smallest" true Ballot.(b1 > Ballot.zero)

let test_msg_roundtrip () =
  let b = Ballot.next Ballot.zero ~node:1 in
  let msgs =
    [
      Msg.Prepare { ballot = b; from_instance = 7 };
      Msg.Promise
        {
          ballot = b;
          ok = true;
          accepted = [ { Msg.instance = 3; ballot = b; value = "v" } ];
        };
      Msg.Promise { ballot = b; ok = false; accepted = [] };
      Msg.Propose { ballot = b; instance = 9; value = "payload" };
      Msg.Accepted { ballot = b; instance = 9; ok = true };
      Msg.Learn { instance = 4; value = "chosen" };
    ]
  in
  List.iter
    (fun m ->
      match Msg.decode (Msg.encode m) with
      | Ok m' -> Alcotest.(check bool) "roundtrip" true (m = m')
      | Error e -> Alcotest.fail e)
    msgs

(* One paxos node per datacenter, as in the Fig. 7 deployment. *)
type cluster = {
  engine : Engine.t;
  net : Network.t;
  replicas : Replica.t array;
  learned : (int * string) list ref array;
}

let make_cluster ?(n = 4) ?faults ?(auto_retry = false) ?(seed = 21L) () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper ?faults () in
  let addrs = Array.init n (fun i -> Addr.make ~dc:(i mod 4) ~idx:0) in
  let cfg = { Replica.nodes = addrs; election_timeout = Time.of_ms 400.0 } in
  let learned = Array.init n (fun _ -> ref []) in
  let replicas =
    Array.init n (fun i ->
        let transport = Bp_net.Transport.create net addrs.(i) in
        Replica.create ~auto_retry transport cfg ~id:i ~on_learn:(fun inst v ->
            learned.(i) := (inst, v) :: !(learned.(i))))
  in
  { engine; net; replicas; learned }

let test_single_leader_commits () =
  let c = make_cluster () in
  let elected = ref false and committed = ref [] in
  Replica.try_lead c.replicas.(0) ~on_elected:(fun () ->
      elected := true;
      Replica.propose c.replicas.(0) "value-1" ~on_commit:(fun i ->
          committed := i :: !committed);
      Replica.propose c.replicas.(0) "value-2" ~on_commit:(fun i ->
          committed := i :: !committed));
  Engine.run ~until:(Time.of_sec 5.0) c.engine;
  Alcotest.(check bool) "elected" true !elected;
  Alcotest.(check bool) "leader flag" true (Replica.is_leader c.replicas.(0));
  Alcotest.(check (list int)) "both instances" [ 0; 1 ] (List.sort compare !committed);
  Alcotest.(check (option string)) "instance 0" (Some "value-1")
    (Replica.chosen c.replicas.(0) 0)

let test_all_learners_agree () =
  let c = make_cluster () in
  Replica.try_lead c.replicas.(1) ~on_elected:(fun () ->
      List.iter
        (fun v -> Replica.propose c.replicas.(1) v ~on_commit:ignore)
        [ "a"; "b"; "c" ]);
  Engine.run ~until:(Time.of_sec 5.0) c.engine;
  Array.iteri
    (fun i learned ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "node %d learned all" i)
        [ (0, "a"); (1, "b"); (2, "c") ]
        (List.sort compare !learned))
    c.learned

let test_propose_requires_leadership () =
  let c = make_cluster () in
  try
    Replica.propose c.replicas.(0) "v" ~on_commit:ignore;
    Alcotest.fail "expected failure"
  with Failure _ -> ()

let test_commit_latency_is_majority_rtt () =
  (* Leader in California: closest majority = {C, O, V}, so the
     Replication phase should take ~61 ms (RTT C-V), within 10%. *)
  let c = make_cluster () in
  let done_at = ref Time.zero and started = ref Time.zero in
  Replica.try_lead c.replicas.(Topology.dc_california) ~on_elected:(fun () ->
      started := Engine.now c.engine;
      Replica.propose c.replicas.(Topology.dc_california) "v"
        ~on_commit:(fun _ -> done_at := Engine.now c.engine));
  Engine.run ~until:(Time.of_sec 5.0) c.engine;
  let ms = Time.to_ms (Time.diff !done_at !started) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1fms close to 61ms" ms)
    true
    (ms >= 61.0 && ms < 68.0)

let test_leader_change_preserves_values () =
  let c = make_cluster () in
  (* Node 0 leads and commits one value. *)
  Replica.try_lead c.replicas.(0) ~on_elected:(fun () ->
      Replica.propose c.replicas.(0) "stable" ~on_commit:ignore);
  Engine.run ~until:(Time.of_sec 2.0) c.engine;
  (* Node 2 takes over; previously chosen values must survive. *)
  let elected = ref false in
  Replica.try_lead c.replicas.(2) ~on_elected:(fun () ->
      elected := true;
      Replica.propose c.replicas.(2) "after" ~on_commit:ignore);
  Engine.run ~until:(Time.of_sec 4.0) c.engine;
  Alcotest.(check bool) "second election succeeded" true !elected;
  Alcotest.(check bool) "old leader deposed eventually" true
    (Replica.is_leader c.replicas.(2));
  Alcotest.(check (option string)) "instance 0 preserved" (Some "stable")
    (Replica.chosen c.replicas.(2) 0);
  Alcotest.(check (option string)) "new value in a fresh instance" (Some "after")
    (Replica.chosen c.replicas.(2) 1)

let test_deposed_leader_cannot_commit () =
  let c = make_cluster () in
  Replica.try_lead c.replicas.(0) ~on_elected:ignore;
  Engine.run ~until:(Time.of_sec 2.0) c.engine;
  Replica.try_lead c.replicas.(1) ~on_elected:ignore;
  Engine.run ~until:(Time.of_sec 4.0) c.engine;
  (* Node 0 still believes it leads; its proposal must be rejected and it
     must step down rather than commit. *)
  let committed = ref false in
  if Replica.is_leader c.replicas.(0) then begin
    Replica.propose c.replicas.(0) "zombie" ~on_commit:(fun _ -> committed := true);
    Engine.run ~until:(Time.of_sec 6.0) c.engine;
    Alcotest.(check bool) "zombie proposal rejected" false !committed;
    Alcotest.(check bool) "stepped down" false (Replica.is_leader c.replicas.(0))
  end

(* Driven through the network seam alone: a refused promise ends the
   election and a refused accept deposes the leader, each reported to
   the caller (Blockplane-Paxos commits le-failed / deposed on them). *)
let test_nacks_reported () =
  let net = { Replica.send = (fun ~dst:_ _ -> ()); broadcast = ignore } in
  let r = Replica.of_net net ~n:3 ~id:0 ~on_learn:(fun _ _ -> ()) in
  let promise ballot ok = Msg.Promise { ballot; ok; accepted = [] } in
  let outcome = ref "" in
  Replica.try_lead r
    ~on_elected:(fun () -> outcome := "elected")
    ~on_nack:(fun () -> outcome := "election nacked");
  let b1 = Ballot.next Ballot.zero ~node:0 in
  Replica.receive r ~src:1 (promise b1 false);
  Alcotest.(check string) "refused promise" "election nacked" !outcome;
  Replica.try_lead r ~on_elected:(fun () -> outcome := "elected");
  let b2 = Ballot.next b1 ~node:0 in
  Replica.receive r ~src:0 (promise b2 true);
  Replica.receive r ~src:1 (promise b2 true);
  Alcotest.(check string) "majority of promises" "elected" !outcome;
  Replica.propose r "v"
    ~on_commit:(fun _ -> outcome := "committed")
    ~on_nack:(fun () -> outcome := "proposal nacked");
  Replica.receive r ~src:2 (Msg.Accepted { ballot = b2; instance = 0; ok = false });
  Alcotest.(check string) "refused accept" "proposal nacked" !outcome;
  Alcotest.(check bool) "stepped down" false (Replica.is_leader r)

let test_survives_minority_crash () =
  let c = make_cluster () in
  Network.crash c.net (Addr.make ~dc:3 ~idx:0);
  let committed = ref false in
  Replica.try_lead c.replicas.(0) ~on_elected:(fun () ->
      Replica.propose c.replicas.(0) "v" ~on_commit:(fun _ -> committed := true));
  Engine.run ~until:(Time.of_sec 5.0) c.engine;
  Alcotest.(check bool) "commits with one node down" true !committed

let test_blocks_without_majority () =
  let c = make_cluster () in
  Network.crash c.net (Addr.make ~dc:1 ~idx:0);
  Network.crash c.net (Addr.make ~dc:2 ~idx:0);
  Network.crash c.net (Addr.make ~dc:3 ~idx:0);
  let elected = ref false in
  Replica.try_lead c.replicas.(0) ~on_elected:(fun () -> elected := true);
  Engine.run ~until:(Time.of_sec 5.0) c.engine;
  Alcotest.(check bool) "no quorum, no leader" false !elected

let test_duelling_leaders_liveness () =
  let c = make_cluster ~auto_retry:true ~seed:77L () in
  let commits = ref 0 in
  let propose_on r =
    Replica.try_lead r ~on_elected:(fun () ->
        if Replica.is_leader r then
          Replica.propose r "duel" ~on_commit:(fun _ -> incr commits))
  in
  propose_on c.replicas.(0);
  propose_on c.replicas.(3);
  Engine.run ~until:(Time.of_sec 30.0) c.engine;
  Alcotest.(check bool) "eventually some commit" true (!commits >= 1)

let test_safety_under_loss_and_duel () =
  (* Repeated randomized runs: lossy network, two duelling proposers with
     retries; whatever happens, learners must never disagree (the
     Conflicting_choice exception would fire). *)
  for seed = 1 to 15 do
    let faults = { Network.no_faults with drop = 0.15; duplicate = 0.1 } in
    let c = make_cluster ~faults ~auto_retry:true ~seed:(Int64.of_int seed) () in
    let try_commit r v =
      Replica.try_lead r ~on_elected:(fun () ->
          if Replica.is_leader r then (
            (try Replica.propose r v ~on_commit:ignore with Failure _ -> ());
            try Replica.propose r (v ^ "'") ~on_commit:ignore
            with Failure _ -> ()))
    in
    try_commit c.replicas.(0) "left";
    try_commit c.replicas.(2) "right";
    Engine.run ~until:(Time.of_sec 20.0) c.engine;
    (* Cross-check: all values learned anywhere agree per instance. *)
    let merged = Hashtbl.create 16 in
    Array.iter
      (fun learned ->
        List.iter
          (fun (i, v) ->
            match Hashtbl.find_opt merged i with
            | None -> Hashtbl.replace merged i v
            | Some v' ->
                Alcotest.(check string)
                  (Printf.sprintf "seed %d instance %d" seed i)
                  v' v)
          !learned)
      c.learned
  done

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "paxos.core",
      [
        tc "ballot ordering" test_ballot_ordering;
        tc "message roundtrip" test_msg_roundtrip;
        tc "single leader commits" test_single_leader_commits;
        tc "all learners agree" test_all_learners_agree;
        tc "propose requires leadership" test_propose_requires_leadership;
        tc "commit latency = majority RTT" test_commit_latency_is_majority_rtt;
        tc "leader change preserves values" test_leader_change_preserves_values;
        tc "deposed leader cannot commit" test_deposed_leader_cannot_commit;
        tc "nacks are reported" test_nacks_reported;
        tc "survives minority crash" test_survives_minority_crash;
        tc "blocks without majority" test_blocks_without_majority;
        tc "duelling leaders liveness" test_duelling_leaders_liveness;
        tc "safety under loss and duel" test_safety_under_loss_and_duel;
      ] );
  ]
