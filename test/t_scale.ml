open Bp_sim
open Blockplane

(* A synthetic six-datacenter topology: Blockplane is not wired to the
   paper's four AWS regions. *)
let six_dc_topology =
  let n = 6 in
  let rtt = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then rtt.(i).(j) <- 20.0 +. (15.0 *. float_of_int (abs (i - j)))
    done
  done;
  Topology.make
    ~names:(Array.init n (fun i -> Printf.sprintf "DC%d" i))
    ~rtt_ms:rtt ()

let test_six_participants_ring () =
  let engine = Engine.create ~seed:91L () in
  let net = Network.create engine six_dc_topology () in
  let dep =
    Deployment.create ~network:net ~n_participants:6 ~fi:1
      ~app:(module App.Null)
      ()
  in
  let received = Array.make 6 None in
  for p = 0 to 5 do
    Api.on_receive (Deployment.api dep p) (fun ~src payload ->
        received.(p) <- Some (src, payload))
  done;
  (* A ring of messages: p -> p+1. *)
  for p = 0 to 5 do
    Api.send (Deployment.api dep p) ~dest:((p + 1) mod 6)
      (Printf.sprintf "ring-%d" p)
      ~on_done:ignore
  done;
  Engine.run ~until:(Time.of_sec 5.0) engine;
  for p = 0 to 5 do
    Alcotest.(check (option (pair int string)))
      (Printf.sprintf "participant %d" p)
      (Some ((p + 5) mod 6, Printf.sprintf "ring-%d" ((p + 5) mod 6)))
      received.(p);
    Alcotest.(check bool)
      (Printf.sprintf "unit %d agreement" p)
      true
      (Deployment.logs_agree dep p)
  done

let test_view_change_under_load () =
  (* The unit's PBFT primary dies while a burst of commits is in flight;
     every request must still be served after the view change. *)
  let engine = Engine.create ~seed:92L () in
  let net = Network.create engine Topology.aws_paper () in
  let dep =
    Deployment.create ~network:net ~n_participants:1 ~fi:1
      ~app:(module App.Null)
      ()
  in
  let api = Deployment.api dep 0 in
  let served = ref 0 in
  let burst = 30 in
  for i = 1 to burst do
    Api.log_commit api (Printf.sprintf "burst-%d" i) ~on_done:(fun () -> incr served)
  done;
  (* Kill the primary (node 0) almost immediately. *)
  ignore
    (Engine.schedule engine ~after:(Time.of_ms 0.4) (fun () ->
         Network.crash net (Addr.make ~dc:0 ~idx:0)));
  Engine.run ~until:(Time.of_sec 30.0) engine;
  Alcotest.(check int) "every request served across the view change" burst !served;
  (* The surviving replicas agree. *)
  let l1 = Unit_node.log (Deployment.node dep 0 1) in
  let l2 = Unit_node.log (Deployment.node dep 0 2) in
  let len = Stdlib.min (Bp_storage.Log_store.length l1) (Bp_storage.Log_store.length l2) in
  Alcotest.(check bool) "progress" true (len >= burst);
  Alcotest.(check string) "survivors agree"
    (Bp_util.Hex.encode (Bp_storage.Log_store.digest_at l1 len))
    (Bp_util.Hex.encode (Bp_storage.Log_store.digest_at l2 len))

let test_geo_fg2_survives_one_mirror_loss () =
  (* fg=2: proofs from two other participants. Losing one mirror still
     leaves two candidates — commits must keep flowing. *)
  let engine = Engine.create ~seed:93L () in
  let net = Network.create engine Topology.aws_paper () in
  let dep =
    Deployment.create ~network:net ~n_participants:4 ~fi:1 ~fg:2
      ~app:(module App.Null)
      ()
  in
  let api = Deployment.api dep Topology.dc_california in
  let latencies = ref [] in
  let commit i ~k =
    let t0 = Engine.now engine in
    Api.log_commit api (Printf.sprintf "e%d" i) ~on_done:(fun () ->
        latencies := Time.to_ms (Time.diff (Engine.now engine) t0) :: !latencies;
        k ())
  in
  let rec before i =
    if i <= 2 then commit i ~k:(fun () -> before (i + 1))
    else begin
      Network.crash_dc net Topology.dc_oregon;
      after 3
    end
  and after i = if i <= 5 then commit i ~k:(fun () -> after (i + 1)) in
  before 1;
  Engine.run ~until:(Time.of_sec 15.0) engine;
  match List.rev !latencies with
  | [ b1; b2; a1; a2; a3 ] ->
      (* Before: proofs from O+V (bounded by V's 61 ms RTT). *)
      Alcotest.(check bool) "before ~64ms" true (b1 > 55.0 && b2 < 75.0);
      (* After Oregon dies: proofs from V+I (bounded by I's 130 ms RTT);
         the first commit also pays the suspicion delay. *)
      Alcotest.(check bool) "failover spike" true (a1 > 130.0);
      Alcotest.(check bool) "steady state ~135ms" true (a2 > 125.0 && a3 < 160.0)
  | l -> Alcotest.failf "expected 5 commits, got %d" (List.length l)

let test_full_stack_corruption () =
  (* In-flight corruption at the datagram layer, across the whole stack:
     frames catch the flips, the transport retransmits, Blockplane
     delivers exactly once. *)
  let engine = Engine.create ~seed:95L () in
  let faults = { Network.no_faults with corrupt = 0.05 } in
  let net = Network.create engine Topology.aws_paper ~faults () in
  let dep =
    Deployment.create ~network:net ~n_participants:4 ~fi:1
      ~app:(module App.Null)
      ()
  in
  let got = ref [] in
  Api.on_receive (Deployment.api dep 1) (fun ~src:_ p -> got := p :: !got);
  for i = 1 to 6 do
    Api.send (Deployment.api dep 0) ~dest:1 (Printf.sprintf "c%d" i) ~on_done:ignore
  done;
  Engine.run ~until:(Time.of_sec 20.0) engine;
  Alcotest.(check (list string)) "exactly once despite corruption"
    (List.init 6 (fun i -> Printf.sprintf "c%d" (i + 1)))
    (List.rev !got);
  Alcotest.(check bool) "corruption actually happened" true
    ((Network.counters net).Network.corrupted > 0)

let test_combined_fi2_fg1 () =
  (* Both fault dimensions at once: 7-node units and geo mirroring. *)
  let engine = Engine.create ~seed:96L () in
  let net = Network.create engine Topology.aws_paper () in
  let dep =
    Deployment.create ~network:net ~n_participants:4 ~fi:2 ~fg:1
      ~app:(module App.Null)
      ()
  in
  (* Two byzantine nodes in the committing unit. *)
  Bp_pbft.Replica.suppress_commit_votes
    (Unit_node.replica (Deployment.node dep 0 5))
    true;
  Unit_node.set_byzantine_sign_anything (Deployment.node dep 0 6) true;
  let api = Deployment.api dep 0 in
  let committed = ref 0 in
  let got = ref None in
  Api.on_receive (Deployment.api dep 1) (fun ~src:_ p -> got := Some p);
  Api.log_commit api "combined" ~on_done:(fun () -> incr committed);
  Api.send api ~dest:1 "combined-msg" ~on_done:(fun () -> incr committed);
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check int) "commit and send proved" 2 !committed;
  Alcotest.(check (option string)) "delivered with geo proofs" (Some "combined-msg") !got;
  Alcotest.(check bool) "entries geo-proved" true
    (Geo.is_proved (Deployment.geo dep 0) ~pos:0)

let test_deployment_validation () =
  let engine = Engine.create ~seed:94L () in
  let net = Network.create engine Topology.aws_paper () in
  (try
     ignore
       (Deployment.create ~network:net ~n_participants:9 ~fi:1
          ~app:(module App.Null)
          ());
     Alcotest.fail "too many participants accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Deployment.create ~network:net ~n_participants:2 ~fi:1 ~fg:2
         ~app:(module App.Null)
         ());
    Alcotest.fail "impossible fg accepted"
  with Invalid_argument _ -> ()

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "scale",
      [
        tc "six participants on a custom topology" test_six_participants_ring;
        tc "view change under load" test_view_change_under_load;
        tc "fg=2 survives a mirror loss" test_geo_fg2_survives_one_mirror_loss;
        tc "full-stack corruption" test_full_stack_corruption;
        tc "combined fi=2 fg=1" test_combined_fi2_fg1;
        tc "deployment validation" test_deployment_validation;
      ] );
  ]
