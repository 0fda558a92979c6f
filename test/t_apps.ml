open Bp_sim
open Blockplane
open Bp_apps

let make_world ?(fi = 1) ?(fg = 0) ?faults ?(seed = 61L) ~app () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper ?faults () in
  let dep = Deployment.create ~network:net ~n_participants:4 ~fi ~fg ~app () in
  (engine, net, dep)

(* ---------- counter (Algorithm 1) ---------- *)

let counter_app () = App.make (module Counter.Protocol)

let test_counter_end_to_end () =
  let engine, _net, dep = make_world ~app:counter_app () in
  let a = Counter.attach (Deployment.api dep 0) in
  let _b = Counter.attach (Deployment.api dep 1) in
  let done_ = ref 0 in
  Counter.user_request a ~dest:1 ~on_done:(fun () -> incr done_);
  Counter.user_request a ~dest:1 ~on_done:(fun () -> incr done_);
  Engine.run ~until:(Time.of_sec 5.0) engine;
  Alcotest.(check int) "both requests sent" 2 !done_;
  (* Every node of participant 1 counts 2. *)
  Array.iter
    (fun node -> Alcotest.(check int) "counter" 2 (Counter.value node))
    (Deployment.nodes_of dep 1);
  Alcotest.(check bool) "unit 1 replicas agree" true (Deployment.app_digests_agree dep 1);
  (* Participant 0 never incremented its own counter. *)
  Alcotest.(check int) "source counter untouched" 0
    (Counter.value (Deployment.node dep 0 0))

let test_counter_byzantine_increment_rejected () =
  (* §III-C's attack: a malicious node proposes increment-counter without
     having received a message. The verification routine rejects it. *)
  let engine, _net, dep = make_world ~app:counter_app () in
  let _b = Counter.attach (Deployment.api dep 1) in
  let rejected = ref false and committed = ref false in
  Api.submit_record (Deployment.api dep 1) (Record.Commit "increment-counter")
    ~on_done:(fun () -> committed := true)
    ~on_rejected:(fun () -> rejected := true);
  Engine.run ~until:(Time.of_sec 5.0) engine;
  Alcotest.(check bool) "rejected" true !rejected;
  Alcotest.(check bool) "never committed" false !committed;
  Alcotest.(check int) "counter still zero" 0 (Counter.value (Deployment.node dep 1 0))

let test_counter_forged_send_rejected () =
  (* A send with no matching committed user request must be rejected. *)
  let engine, _net, dep = make_world ~app:counter_app () in
  let api0 = Deployment.api dep 0 in
  let rejected = ref false in
  Api.submit_record api0
    (Record.Comm { Record.dest = 1; comm_seq = 0; payload = "count:99" })
    ~on_done:ignore
    ~on_rejected:(fun () -> rejected := true);
  Engine.run ~until:(Time.of_sec 5.0) engine;
  Alcotest.(check bool) "forged send rejected" true !rejected

(* ---------- byzantized paxos (Algorithm 3) ---------- *)

let paxos_app () = App.make (module Byz_paxos.Protocol)

let make_paxos_world ?seed () =
  let engine, net, dep = make_world ?seed ~app:paxos_app () in
  let drivers = Array.init 4 (fun p -> Byz_paxos.attach (Deployment.api dep p) ~n_participants:4) in
  (engine, net, dep, drivers)

let test_byz_paxos_election_and_replication () =
  let engine, _net, dep, drivers = make_paxos_world () in
  let elected = ref false and committed = ref false in
  Byz_paxos.elect drivers.(2) ~on_elected:(fun ok ->
      elected := ok;
      if ok then
        Byz_paxos.replicate drivers.(2) "the-value" ~on_result:(fun ok ->
            committed := ok));
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check bool) "elected" true !elected;
  Alcotest.(check bool) "leader flag" true (Byz_paxos.is_leader drivers.(2));
  Alcotest.(check bool) "replicated" true !committed;
  Alcotest.(check (list (pair int string))) "decided" [ (0, "the-value") ]
    (Byz_paxos.decided drivers.(2));
  (* All four units' protocol replicas stayed consistent. *)
  for p = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "unit %d agreement" p)
      true
      (Deployment.app_digests_agree dep p)
  done

let test_byz_paxos_replication_latency_fig7 () =
  (* Fig. 7 shape: Blockplane-Paxos replication from Virginia should cost
     about the 70 ms majority RTT plus local-commitment overhead
     (paper: within 10-13%% of paxos for V). *)
  let engine, _net, _dep, drivers = make_paxos_world () in
  let v = Topology.dc_virginia in
  let lat = ref None in
  Byz_paxos.elect drivers.(v) ~on_elected:(fun ok ->
      if ok then begin
        let started = Engine.now engine in
        Byz_paxos.replicate drivers.(v) "timed" ~on_result:(fun _ ->
            lat := Some (Time.to_ms (Time.diff (Engine.now engine) started)))
      end);
  Engine.run ~until:(Time.of_sec 10.0) engine;
  match !lat with
  | None -> Alcotest.fail "replication did not finish"
  | Some ms ->
      Alcotest.(check bool)
        (Printf.sprintf "V replication %.1fms in [70, 90]" ms)
        true
        (ms >= 70.0 && ms <= 90.0)

let test_byz_paxos_non_leader_cannot_replicate () =
  let engine, _net, _dep, drivers = make_paxos_world () in
  let result = ref None in
  Byz_paxos.replicate drivers.(0) "nope" ~on_result:(fun ok -> result := Some ok);
  Engine.run ~until:(Time.of_sec 5.0) engine;
  Alcotest.(check (option bool)) "refused" (Some false) !result

let test_byz_paxos_forged_message_rejected () =
  (* A byzantine node tries to emit a paxos-prepare the protocol never
     committed an event for: the send-verification routine rejects it. *)
  let engine, _net, dep, _drivers = make_paxos_world () in
  let api0 = Deployment.api dep 0 in
  let payload =
    Bp_paxos.Msg.encode
      (Bp_paxos.Msg.Prepare
         { ballot = Bp_paxos.Ballot.next Bp_paxos.Ballot.zero ~node:0; from_instance = 0 })
  in
  (* Well-formed, so only the credit check can reject it. *)
  Alcotest.(check bool) "forged payload decodes" true
    (Result.is_ok (Bp_paxos.Msg.decode payload));
  let forged_payload = Record.Comm { Record.dest = 1; comm_seq = 0; payload } in
  let rejected = ref false in
  Api.submit_record api0 forged_payload ~on_done:ignore
    ~on_rejected:(fun () -> rejected := true);
  Engine.run ~until:(Time.of_sec 5.0) engine;
  Alcotest.(check bool) "forged paxos message rejected" true !rejected

let test_byz_paxos_two_leaders_last_wins () =
  let engine, _net, _dep, drivers = make_paxos_world ~seed:62L () in
  let first = ref false in
  Byz_paxos.elect drivers.(0) ~on_elected:(fun ok -> first := ok);
  Engine.run ~until:(Time.of_sec 5.0) engine;
  Alcotest.(check bool) "first elected" true !first;
  (* A second, later election with a higher ballot deposes the first. *)
  let second = ref false in
  Byz_paxos.elect drivers.(1) ~on_elected:(fun ok -> second := ok);
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check bool) "second elected" true !second;
  (* The deposed leader's replication now fails. *)
  let result = ref None in
  Byz_paxos.replicate drivers.(0) "stale" ~on_result:(fun ok -> result := Some ok);
  Engine.run ~until:(Time.of_sec 15.0) engine;
  Alcotest.(check (option bool)) "stale leader loses" (Some false) !result

(* Blockplane-Paxos runs plain Paxos's protocol core, so each unit's
   Local Log carries exactly the messages a plain Paxos node sends. *)
let test_byz_paxos_sends_plain_paxos_messages () =
  let engine, _net, dep, drivers = make_paxos_world () in
  let v = Topology.dc_virginia in
  let values = [ "a"; "b"; "c" ] in
  let rec replicate_all = function
    | [] -> ()
    | value :: rest ->
        Byz_paxos.replicate drivers.(v) value ~on_result:(fun ok ->
            if ok then replicate_all rest)
  in
  Byz_paxos.elect drivers.(v) ~on_elected:(fun ok -> if ok then replicate_all values);
  Engine.run ~until:(Time.of_sec 10.0) engine;
  let kind = function
    | Bp_paxos.Msg.Prepare _ -> "prepare"
    | Promise _ -> "promise"
    | Propose _ -> "propose"
    | Accepted _ -> "accepted"
    | Learn _ -> "learn"
  in
  for p = 0 to 3 do
    let sent = Hashtbl.create 8 and learned = ref [] in
    let decode payload =
      match Bp_paxos.Msg.decode payload with
      | Ok m -> m
      | Error e -> Alcotest.fail e
    in
    Bp_storage.Log_store.iter_from (Unit_node.log (Deployment.node dep p 0)) 0
      (fun entry ->
        match Record.decode entry.Bp_storage.Log_store.payload with
        | Ok (Record.Comm { Record.payload; _ }) ->
            let k = kind (decode payload) in
            Hashtbl.replace sent k (1 + Option.value ~default:0 (Hashtbl.find_opt sent k))
        | Ok (Record.Recv { Record.tpayload; _ }) -> (
            match decode tpayload with
            | Learn { instance; value } -> learned := (instance, value) :: !learned
            | _ -> ())
        | _ -> ());
    let counts =
      List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) sent [])
    in
    let expected, expected_learned =
      if p = v then ([ ("learn", 9); ("prepare", 3); ("propose", 9) ], [])
      else ([ ("accepted", 3); ("promise", 1) ], [ (0, "a"); (1, "b"); (2, "c") ])
    in
    Alcotest.(check (list (pair string int)))
      (Printf.sprintf "unit %d sent" p)
      expected counts;
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "unit %d learned" p)
      expected_learned (List.sort compare !learned)
  done

(* ---------- hierarchical PBFT baseline ---------- *)

let test_hier_pbft_replication () =
  let engine = Engine.create ~seed:63L () in
  let net = Network.create engine Topology.aws_paper () in
  let h = Hier_pbft.create ~network:net ~n_participants:4 () in
  let elected = ref false in
  Hier_pbft.elect h ~leader:Topology.dc_virginia ~on_elected:(fun ok -> elected := ok);
  Engine.run ~until:(Time.of_sec 2.0) engine;
  Alcotest.(check bool) "elected" true !elected;
  let lat = ref None in
  let started = Engine.now engine in
  Hier_pbft.replicate h ~leader:Topology.dc_virginia "v" ~on_committed:(fun () ->
      lat := Some (Time.to_ms (Time.diff (Engine.now engine) started)));
  Engine.run ~until:(Time.of_sec 7.0) engine;
  (match !lat with
  | None -> Alcotest.fail "no commit"
  | Some ms ->
      (* Between plain paxos (70) and Blockplane-paxos (~78) for V. *)
      Alcotest.(check bool)
        (Printf.sprintf "V hier latency %.1fms in [70, 85]" ms)
        true
        (ms >= 70.0 && ms <= 85.0));
  Alcotest.(check int) "decided" 1 (Hier_pbft.decided_count h Topology.dc_virginia)

(* ---------- bank ---------- *)

let bank_app () = App.make (module Bank.Ledger)

let test_bank_local_operations () =
  let engine, _net, dep = make_world ~app:bank_app () in
  let b = Bank.attach (Deployment.api dep 0) in
  let steps = ref [] in
  Bank.open_account b "alice" 100 ~on_done:(fun () ->
      steps := "open" :: !steps;
      Bank.deposit b "alice" 50 ~on_done:(fun () ->
          steps := "deposit" :: !steps;
          Bank.withdraw b "alice" 30 ~on_done:(fun () -> steps := "withdraw" :: !steps)));
  Engine.run ~until:(Time.of_sec 5.0) engine;
  Alcotest.(check (list string)) "all steps" [ "open"; "deposit"; "withdraw" ]
    (List.rev !steps);
  Array.iter
    (fun node ->
      Alcotest.(check (option int)) "balance replicated" (Some 120)
        (Bank.balance node "alice"))
    (Deployment.nodes_of dep 0)

let test_bank_overdraft_rejected () =
  let engine, _net, dep = make_world ~app:bank_app () in
  let b = Bank.attach (Deployment.api dep 0) in
  let rejected = ref false and done_ = ref false in
  Bank.open_account b "bob" 10 ~on_done:(fun () ->
      Bank.withdraw b "bob" 1000
        ~on_rejected:(fun () -> rejected := true)
        ~on_done:(fun () -> done_ := true));
  Engine.run ~until:(Time.of_sec 5.0) engine;
  Alcotest.(check bool) "overdraft rejected" true !rejected;
  Alcotest.(check bool) "never applied" false !done_;
  Alcotest.(check (option int)) "balance intact" (Some 10)
    (Bank.balance (Deployment.node dep 0 0) "bob")

let test_bank_cross_dc_transfer () =
  let engine, _net, dep = make_world ~app:bank_app () in
  let b0 = Bank.attach (Deployment.api dep 0) in
  let _b1 = Bank.attach (Deployment.api dep 1) in
  Bank.open_account b0 "alice" 100 ~on_done:(fun () ->
      Bank.transfer b0 ~from_account:"alice" ~dest:1 ~to_account:"carol" 40
        ~on_done:ignore);
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check (option int)) "debited" (Some 60)
    (Bank.balance (Deployment.node dep 0 0) "alice");
  Alcotest.(check (option int)) "credited" (Some 40)
    (Bank.balance (Deployment.node dep 1 0) "carol");
  Alcotest.(check bool) "both units agree" true
    (Deployment.app_digests_agree dep 0 && Deployment.app_digests_agree dep 1)

let test_bank_byzantine_credit_rejected () =
  (* Minting money: a byzantine replica proposes a credit with no
     received transfer behind it. *)
  let engine, _net, dep = make_world ~app:bank_app () in
  let _b1 = Bank.attach (Deployment.api dep 1) in
  let rejected = ref false in
  Api.submit_record (Deployment.api dep 1)
    (Record.Commit (Bank.encode_op (Bank.Credit_from_transfer ("mallory", 1_000_000))))
    ~on_done:ignore
    ~on_rejected:(fun () -> rejected := true);
  Engine.run ~until:(Time.of_sec 5.0) engine;
  Alcotest.(check bool) "credit without transfer rejected" true !rejected;
  Alcotest.(check (option int)) "no money minted" None
    (Bank.balance (Deployment.node dep 1 0) "mallory")

let test_bank_duplicate_transmission_credits_once () =
  (* Two copies of one signed transmission ordered into the same batch are
     both judged against the pre-batch state, so both execute. Only the
     copy that advances the source's frontier is a delivery: the credit
     is committed once. Stop-and-wait consensus, so a batch forms behind
     the one in flight. *)
  let transfer_world () =
    let engine = Engine.create ~seed:61L () in
    let net = Network.create engine Topology.aws_paper () in
    let dep =
      Deployment.create ~network:net ~n_participants:4 ~fi:1 ~fg:0
        ~max_in_flight:1 ~app:bank_app ()
    in
    let b0 = Bank.attach (Deployment.api dep 0) in
    let _b1 = Bank.attach (Deployment.api dep 1) in
    (engine, dep, b0)
  in
  (* A first run captures the genuine transmission record. *)
  let engine, dep, b0 = transfer_world () in
  let captured = ref None in
  Unit_node.add_executed_hook (Deployment.node dep 1 0) (fun ~pos:_ -> function
    | Record.Recv tr -> captured := Some tr
    | _ -> ());
  Bank.open_account b0 "alice" 100 ~on_done:(fun () ->
      Bank.transfer b0 ~from_account:"alice" ~dest:1 ~to_account:"carol" 40
        ~on_done:ignore);
  Engine.run ~until:(Time.of_sec 10.0) engine;
  let tr =
    match !captured with
    | Some tr -> tr
    | None -> Alcotest.fail "no transmission captured"
  in
  (* An identical world (same seed, same keys) receives two copies while
     an earlier commit holds the pipeline, so they share the next batch. *)
  let engine, dep, _b0 = transfer_world () in
  let api1 = Deployment.api dep 1 in
  let recv_commits = ref 0 in
  Api.submit_record api1 (Record.Commit (Bank.encode_op (Bank.Open ("dave", 1))))
    ~on_done:ignore ~on_rejected:ignore;
  for _ = 1 to 2 do
    Api.submit_record api1 (Record.Recv tr)
      ~on_done:(fun () -> incr recv_commits)
      ~on_rejected:ignore
  done;
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check int) "both copies committed" 2 !recv_commits;
  Array.iter
    (fun node ->
      Alcotest.(check (option int)) "credited once" (Some 40)
        (Bank.balance node "carol"))
    (Deployment.nodes_of dep 1);
  Alcotest.(check bool) "unit agrees" true (Deployment.app_digests_agree dep 1);
  (* The pull side shares the rule: the payload is buffered once. *)
  Alcotest.(check (option string)) "received once" (Some tr.Record.tpayload)
    (Api.receive api1 ~src:0);
  Alcotest.(check (option string)) "then nothing" None (Api.receive api1 ~src:0)

let test_bank_conservation_under_traffic () =
  let engine, _net, dep = make_world ~app:bank_app ~seed:64L () in
  let banks = Array.init 4 (fun p -> Bank.attach (Deployment.api dep p)) in
  let opened = ref 0 in
  Array.iteri
    (fun p b ->
      Bank.open_account b (Printf.sprintf "acct%d" p) 1000 ~on_done:(fun () -> incr opened))
    banks;
  Engine.run ~until:(Time.of_sec 3.0) engine;
  Alcotest.(check int) "all opened" 4 !opened;
  (* A ring of transfers. *)
  Array.iteri
    (fun p b ->
      let dest = (p + 1) mod 4 in
      Bank.transfer b
        ~from_account:(Printf.sprintf "acct%d" p)
        ~dest
        ~to_account:(Printf.sprintf "acct%d" dest)
        (100 + p) ~on_done:ignore)
    banks;
  Engine.run ~until:(Time.of_sec 15.0) engine;
  (* Total money is conserved across the four ledgers. *)
  let total = ref 0 in
  for p = 0 to 3 do
    match Bank.balance (Deployment.node dep p 0) (Printf.sprintf "acct%d" p) with
    | Some b -> total := !total + b
    | None -> Alcotest.fail "missing account"
  done;
  Alcotest.(check int) "conservation" 4000 !total

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "apps.counter",
      [
        tc "end to end (Algorithm 1)" test_counter_end_to_end;
        tc "byzantine increment rejected" test_counter_byzantine_increment_rejected;
        tc "forged send rejected" test_counter_forged_send_rejected;
      ] );
    ( "apps.byz_paxos",
      [
        tc "election + replication" test_byz_paxos_election_and_replication;
        tc "replication latency (fig7 shape)" test_byz_paxos_replication_latency_fig7;
        tc "non-leader cannot replicate" test_byz_paxos_non_leader_cannot_replicate;
        tc "forged paxos message rejected" test_byz_paxos_forged_message_rejected;
        tc "two leaders, last wins" test_byz_paxos_two_leaders_last_wins;
        tc "sends plain paxos messages" test_byz_paxos_sends_plain_paxos_messages;
      ] );
    ( "apps.hier_pbft",
      [ tc "replication latency between baselines" test_hier_pbft_replication ] );
    ( "apps.bank",
      [
        tc "local operations" test_bank_local_operations;
        tc "overdraft rejected" test_bank_overdraft_rejected;
        tc "cross-dc transfer" test_bank_cross_dc_transfer;
        tc "byzantine credit rejected" test_bank_byzantine_credit_rejected;
        tc "duplicate transmission credits once"
          test_bank_duplicate_transmission_credits_once;
        tc "conservation under traffic" test_bank_conservation_under_traffic;
      ] );
  ]
