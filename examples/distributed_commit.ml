(* Byzantized two-phase commit — atomic transactions across datacenters
   (the §III-C transaction-processing use case).

   A coordinator in California runs 2PC over partitions held in Oregon,
   Virginia and Ireland. The benign protocol is unchanged; Blockplane's
   verification routines make every step unfakeable: a cohort cannot vote
   YES for an inapplicable operation, and the coordinator cannot decide
   COMMIT unless every YES vote was genuinely received. It exits 1 if the
   byzantine force-COMMIT is accepted.

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
  let coord = Two_phase.attach_coordinator (Deployment.api dep 0) in
  List.iter (fun p -> Two_phase.attach_cohort (Deployment.api dep p)) [ 1; 2; 3 ];

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

  (* Transaction 2: one leg cannot apply -> global abort, nothing sticks. *)
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
  if not !rejected then exit 1
