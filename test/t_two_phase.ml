open Bp_sim
open Blockplane
open Bp_apps

let make_world ?(seed = 101L) () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper () in
  let dep =
    Deployment.create ~network:net ~n_participants:4 ~fi:1
      ~app:(module Two_phase.Protocol)
      ()
  in
  let coord = Two_phase.attach_coordinator (Deployment.api dep 0) in
  for p = 1 to 3 do
    Two_phase.attach_cohort (Deployment.api dep p)
  done;
  (engine, net, dep, coord)

let test_commit_path () =
  let engine, _net, dep, coord = make_world () in
  let outcome = ref None in
  Two_phase.submit coord
    ~ops:
      [
        (1, Bp_storage.Kv.Put ("x", "1"));
        (2, Bp_storage.Kv.Put ("y", "2"));
        (3, Bp_storage.Kv.Put ("z", "3"));
      ]
    ~on_decided:(fun o -> outcome := Some o);
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check bool) "committed" true (!outcome = Some Two_phase.Committed);
  (* Every cohort applied its operation, on all of its replicas. *)
  List.iter
    (fun (p, key, v) ->
      Array.iter
        (fun node ->
          Alcotest.(check (option string))
            (Printf.sprintf "partition %d" p)
            (Some v)
            (Two_phase.partition_get node key))
        (Deployment.nodes_of dep p))
    [ (1, "x", "1"); (2, "y", "2"); (3, "z", "3") ];
  Alcotest.(check (pair int int)) "counts" (1, 0) (Two_phase.decided_count coord);
  T_apps.check_drained dep

let test_abort_path_atomicity () =
  (* One cohort's operation cannot apply (delete of a missing key): it
     votes NO, the transaction aborts, and *no* cohort applies anything —
     atomicity. *)
  let engine, _net, dep, coord = make_world ~seed:102L () in
  let outcome = ref None in
  Two_phase.submit coord
    ~ops:
      [
        (1, Bp_storage.Kv.Put ("a", "1"));
        (2, Bp_storage.Kv.Delete "missing-key");
      ]
    ~on_decided:(fun o -> outcome := Some o);
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check bool) "aborted" true (!outcome = Some Two_phase.Aborted);
  Alcotest.(check (option string)) "cohort 1 did not apply" None
    (Two_phase.partition_get (Deployment.node dep 1 0) "a");
  Alcotest.(check (pair int int)) "counts" (0, 1) (Two_phase.decided_count coord)

let test_sequential_transactions () =
  let engine, _net, dep, coord = make_world ~seed:103L () in
  let outcomes = ref [] in
  let rec go i =
    if i <= 3 then
      Two_phase.submit coord
        ~ops:[ (1, Bp_storage.Kv.Add ("ctr", 10)); (2, Bp_storage.Kv.Add ("ctr", 1)) ]
        ~on_decided:(fun o ->
          outcomes := o :: !outcomes;
          go (i + 1))
  in
  go 1;
  Engine.run ~until:(Time.of_sec 20.0) engine;
  Alcotest.(check int) "three decided" 3 (List.length !outcomes);
  Alcotest.(check bool) "all committed" true
    (List.for_all (fun o -> o = Two_phase.Committed) !outcomes);
  Alcotest.(check (option string)) "partition 1 accumulated" (Some "30")
    (Two_phase.partition_get (Deployment.node dep 1 0) "ctr");
  Alcotest.(check (option string)) "partition 2 accumulated" (Some "3")
    (Two_phase.partition_get (Deployment.node dep 2 0) "ctr")

let test_byzantine_commit_decision_rejected () =
  (* The core 2PC safety property under byzantine nodes: a COMMIT decision
     without all YES votes received cannot pass verification. *)
  let engine, _net, dep, _coord = make_world ~seed:104L () in
  (* No transaction ran; forge a decide-commit for a fabricated tid. *)
  let rejected = ref false in
  let forged_decide = ref false in
  Api.submit_record (Deployment.api dep 0)
    (Record.Commit
       (Bp_codec.Wire.encode (fun e ->
            Bp_codec.Wire.u8 e 1;
            Bp_codec.Wire.string e "t0.999";
            Bp_codec.Wire.bool e true)))
    ~on_done:(fun () -> forged_decide := true)
    ~on_rejected:(fun () -> rejected := true);
  Engine.run ~until:(Time.of_sec 5.0) engine;
  Alcotest.(check bool) "forged decide rejected" true !rejected;
  Alcotest.(check bool) "never committed" false !forged_decide

let test_byzantine_premature_commit_rejected () =
  (* Run a transaction that a cohort will refuse, and race a byzantine
     COMMIT decision against the honest ABORT: the verification routines
     must reject the COMMIT because no complete YES vote set exists. *)
  let engine, _net, dep, coord = make_world ~seed:105L () in
  let outcome = ref None in
  Two_phase.submit coord
    ~ops:[ (1, Bp_storage.Kv.Delete "nope") ]
    ~on_decided:(fun o -> outcome := Some o);
  (* While votes are in flight, a byzantine replica proposes COMMIT. *)
  let commit_accepted = ref false in
  ignore
    (Engine.schedule engine ~after:(Time.of_ms 5.0) (fun () ->
         Api.submit_record (Deployment.api dep 0)
           (Record.Commit
              (Bp_codec.Wire.encode (fun e ->
                   Bp_codec.Wire.u8 e 1;
                   Bp_codec.Wire.string e "t0.0";
                   Bp_codec.Wire.bool e true)))
           ~on_done:(fun () -> commit_accepted := true)
           ~on_rejected:ignore));
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check bool) "honest outcome is abort" true
    (!outcome = Some Two_phase.Aborted);
  Alcotest.(check bool) "byzantine COMMIT rejected" false !commit_accepted;
  (* Nothing was applied anywhere. *)
  Alcotest.(check (option string)) "no phantom apply" None
    (Two_phase.partition_get (Deployment.node dep 1 0) "nope")

let test_replica_agreement_after_transactions () =
  let engine, _net, dep, coord = make_world ~seed:106L () in
  let done_ = ref false in
  Two_phase.submit coord
    ~ops:[ (1, Bp_storage.Kv.Put ("k", "v")); (3, Bp_storage.Kv.Put ("k", "w")) ]
    ~on_decided:(fun _ -> done_ := true);
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check bool) "decided" true !done_;
  for p = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "unit %d agreement" p)
      true
      (Deployment.app_digests_agree dep p && Deployment.logs_agree dep p)
  done

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "apps.two_phase",
      [
        tc "commit path" test_commit_path;
        tc "abort preserves atomicity" test_abort_path_atomicity;
        tc "sequential transactions" test_sequential_transactions;
        tc "byzantine decide without votes rejected" test_byzantine_commit_decision_rejected;
        tc "byzantine premature COMMIT rejected" test_byzantine_premature_commit_rejected;
        tc "replica agreement" test_replica_agreement_after_transactions;
      ] );
  ]
