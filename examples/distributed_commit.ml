(* Byzantized two-phase commit — atomic transactions across datacenters
   (the §III-C transaction-processing use case).

   A coordinator in California runs 2PC over partitions held in Oregon,
   Virginia and Ireland. The benign protocol is unchanged; Blockplane's
   verification routines make every step unfakeable: a cohort cannot vote
   YES for an inapplicable operation, and the coordinator cannot decide
   COMMIT unless every YES vote was genuinely received; no participant
   can send a message its log does not owe. It exits 1 if the byzantine
   force-COMMIT is accepted, if the forged COMMIT decision sent after
   txn-2's abort commits, or if Oregon (the leg that voted YES) applies
   txn-2.

   Run with:  dune exec examples/distributed_commit.exe *)

open Bp_sim
open Blockplane
open Bp_apps

let () =
  let engine = Engine.create ~seed:271828L () in
  let network = Network.create engine Topology.aws_paper () in
  let dep =
    Deployment.create ~network ~n_participants:4 ~fi:1
      ~app:(module Two_phase.Protocol)
      ()
  in
  let coord = Two_phase.attach (Deployment.api dep 0) in
  List.iter (fun p -> ignore (Two_phase.attach (Deployment.api dep p))) [ 1; 2; 3 ];

  let log fmt =
    Printf.ksprintf
      (fun s -> Printf.printf "[%7.1f ms] %s\n" (Time.to_ms (Engine.now engine)) s)
      fmt
  in
  let name p = Topology.name Topology.aws_paper p in

  (* Transaction 1: provision a user across three partitions. *)
  Two_phase.submit coord
    ~ops:
      [
        (1, Bp_storage.Kv.Put ("user:42:profile", "alice"));
        (2, Bp_storage.Kv.Put ("user:42:balance", "100"));
        (3, Bp_storage.Kv.Put ("user:42:settings", "default"));
      ]
    ~on_decided:(fun o ->
      log "txn-1 (provision across O, V, I): %s"
        (match o with Two_phase.Committed -> "COMMITTED" | Aborted -> "ABORTED"));
  Engine.run ~until:(Time.of_sec 2.0) engine;

  (* Transaction 2: one leg cannot apply -> global abort, nothing sticks.
     As the abort executes, the coordinator's participant also sends a
     COMMIT decision to Oregon, whose leg voted YES. *)
  let encoded tag b =
    Bp_codec.Wire.encode (fun e ->
        Bp_codec.Wire.u8 e tag;
        Bp_codec.Wire.string e "t0.1";
        Bp_codec.Wire.bool e b)
  in
  let forged_committed = ref false in
  let api0 = Deployment.api dep 0 in
  Api.on_commit api0 (fun payload ->
      (* the abort decide step (tag 1); the forged Decision message (tag 2) *)
      if String.equal payload (encoded 1 false) then
        Api.send api0 ~dest:1 (encoded 2 true) ~on_done:(fun () ->
            forged_committed := true));
  Two_phase.submit coord
    ~ops:
      [
        (1, Bp_storage.Kv.Put ("user:43:profile", "bob"));
        (2, Bp_storage.Kv.Delete "user:43:balance" (* does not exist *));
      ]
    ~on_decided:(fun o ->
      log "txn-2 (one impossible leg):        %s"
        (match o with Two_phase.Committed -> "COMMITTED" | Aborted -> "ABORTED"));
  Engine.run ~until:(Time.of_sec 4.0) engine;

  Printf.printf "\npartitions after both transactions:\n";
  List.iter
    (fun (p, key) ->
      Printf.printf "  %-10s %-18s = %s\n" (name p) key
        (Option.value ~default:"(absent)"
           (Two_phase.partition_get (Deployment.node dep p 0) key)))
    [
      (1, "user:42:profile");
      (2, "user:42:balance");
      (3, "user:42:settings");
      (1, "user:43:profile");
    ];

  let txn2_applied =
    Array.exists
      (fun node -> Option.is_some (Two_phase.partition_get node "user:43:profile"))
      (Deployment.nodes_of dep 1)
  in
  Printf.printf "\nforged COMMIT decision to %s after the abort committed: %b\n" (name 1)
    !forged_committed;
  Printf.printf "any %s node applied the aborted txn-2: %b\n" (name 1) txn2_applied;

  (* A byzantine replica tries to force-commit a refused transaction. *)
  let rejected = ref false in
  Api.submit_record (Deployment.api dep 0)
    (Record.Commit
       (Bp_codec.Wire.encode (fun e ->
            Bp_codec.Wire.u8 e 1;
            Bp_codec.Wire.string e "t0.1";
            Bp_codec.Wire.bool e true)))
    ~on_done:(fun () -> assert false)
    ~on_rejected:(fun () -> rejected := true);
  Engine.run ~until:(Time.of_sec 6.0) engine;
  Printf.printf "\nbyzantine force-COMMIT of the aborted txn rejected: %b\n" !rejected;
  let committed, aborted = Two_phase.decided_count coord in
  Printf.printf "coordinator tally: %d committed, %d aborted\n" committed aborted;
  if (not !rejected) || !forged_committed || txn2_applied then exit 1
