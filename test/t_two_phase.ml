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
  let coord = Two_phase.attach (Deployment.api dep 0) in
  for p = 1 to 3 do
    ignore (Two_phase.attach (Deployment.api dep p))
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

(* Hand-encoded 2PC payloads, as a byzantine node would write them:
   [event] is a committed step, [wmsg] a message between participants;
   each is a tag, the tid and one bool. *)
let encoded tag tid b =
  Bp_codec.Wire.encode (fun e ->
      Bp_codec.Wire.u8 e tag;
      Bp_codec.Wire.string e tid;
      Bp_codec.Wire.bool e b)

let decide_event ~commit = encoded 1 "t0.0" commit
let vote_cast_event ~yes = encoded 2 "t0.0" yes
let vote_msg ~yes = encoded 1 "t0.0" yes
let decision_msg ~commit = encoded 2 "t0.0" commit

(* When step [trigger] executes at [p]'s lead node, [p] also sends
   [forged] to [dest]; the flag is set if that send ever commits. The
   hook runs before the driver's, so the forged send takes the earlier
   sequence number: the strongest race for a forger. *)
let forge_on dep p ~trigger ~dest forged =
  let committed = ref false in
  let api = Deployment.api dep p in
  Api.on_commit api (fun payload ->
      if String.equal payload trigger then
        Api.send api ~dest forged ~on_done:(fun () -> committed := true));
  committed

let absent_everywhere dep p key =
  Array.for_all
    (fun node -> Option.is_none (Two_phase.partition_get node key))
    (Deployment.nodes_of dep p)

let test_forged_decision_after_abort () =
  (* Cohort 1 votes NO, so the coordinator aborts. As the abort
     executes, participant 0 also sends a COMMIT decision to the YES
     cohort. Only the decision the abort owes is legal: the forged one
     is rejected, and cohort 2 applies nothing. (The rejected decision
     holds the sequence number before the honest one's, so cohort 2
     never learns the abort either.) *)
  let engine, _net, dep, coord = make_world ~seed:271828L () in
  let forged =
    forge_on dep 0 ~trigger:(decide_event ~commit:false) ~dest:2
      (decision_msg ~commit:true)
  in
  let outcome = ref None in
  Two_phase.submit coord
    ~ops:[ (1, Bp_storage.Kv.Delete "nope"); (2, Bp_storage.Kv.Put ("x", "1")) ]
    ~on_decided:(fun o -> outcome := Some o);
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check bool) "aborted" true (!outcome = Some Two_phase.Aborted);
  Alcotest.(check bool) "forged decision never commits" false !forged;
  Alcotest.(check bool) "no node of cohort 2 applied x" true
    (absent_everywhere dep 2 "x")

let test_forged_yes_after_no () =
  (* Cohort 2's op cannot apply, so it votes NO. As that vote step
     executes, participant 2 also sends a YES. Only the NO its vote step
     owes is legal: the coordinator never decides COMMIT, and cohort 1
     applies nothing. (The rejected YES holds the sequence number before
     the honest NO's, so the NO is never delivered either and the
     transaction stays undecided.) *)
  let engine, _net, dep, coord = make_world ~seed:271828L () in
  let forged =
    forge_on dep 2 ~trigger:(vote_cast_event ~yes:false) ~dest:0 (vote_msg ~yes:true)
  in
  let outcome = ref None in
  Two_phase.submit coord
    ~ops:[ (1, Bp_storage.Kv.Put ("x", "1")); (2, Bp_storage.Kv.Delete "nope") ]
    ~on_decided:(fun o -> outcome := Some o);
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check bool) "coordinator never decides COMMIT" false
    (!outcome = Some Two_phase.Committed);
  Alcotest.(check bool) "forged YES never commits" false !forged;
  Alcotest.(check bool) "no node of cohort 1 applied x" true
    (absent_everywhere dep 1 "x")

let begin_event tid ops =
  Bp_codec.Wire.encode (fun e ->
      Bp_codec.Wire.u8 e 0;
      Bp_codec.Wire.string e tid;
      Bp_codec.Wire.list e
        (fun (cohort, op) ->
          Bp_codec.Wire.varint e cohort;
          Bp_codec.Wire.string e (Bp_storage.Kv.encode_op op))
        ops)

let test_malformed_begin_rejected () =
  (* A Begin owes a Prepare to each cohort it names, so a cohort that is
     the coordinator itself, out of range, or named twice must never
     commit: the first two could not be sent, and a repeated cohort
     could never collect all its votes. A byzantine replica submits one
     of each; all are rejected, and an honest transaction that follows
     still commits. *)
  let engine, _net, dep, coord = make_world ~seed:107L () in
  let put = Bp_storage.Kv.Put ("x", "1") in
  let bad =
    [ ("t0.90", [ (0, put) ]); ("t0.91", [ (99, put) ]); ("t0.92", [ (1, put); (1, put) ]) ]
  in
  let rejected = ref 0 and committed = ref 0 in
  List.iter
    (fun (tid, ops) ->
      Api.submit_record (Deployment.api dep 0)
        (Record.Commit (begin_event tid ops))
        ~on_done:(fun () -> incr committed)
        ~on_rejected:(fun () -> incr rejected))
    bad;
  List.iter
    (fun (_, ops) ->
      Alcotest.check_raises "submit refuses it"
        (Invalid_argument "Two_phase.submit: no operations, or a bad or repeated cohort")
        (fun () -> Two_phase.submit coord ~ops ~on_decided:ignore))
    bad;
  let outcome = ref None in
  ignore
    (Engine.schedule engine ~after:(Time.of_sec 1.0) (fun () ->
         Two_phase.submit coord ~ops:[ (1, put) ] ~on_decided:(fun o -> outcome := Some o)));
  Engine.run ~until:(Time.of_sec 10.0) engine;
  Alcotest.(check int) "all three rejected" 3 !rejected;
  Alcotest.(check int) "none committed" 0 !committed;
  Alcotest.(check bool) "the honest transaction still commits" true
    (!outcome = Some Two_phase.Committed);
  Alcotest.(check (option string)) "cohort 1 applied it" (Some "1")
    (Two_phase.partition_get (Deployment.node dep 1 0) "x")

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
        tc "forged decision after abort never applies" test_forged_decision_after_abort;
        tc "forged YES after a NO is rejected" test_forged_yes_after_no;
        tc "Begin with a bad or repeated cohort is rejected" test_malformed_begin_rejected;
      ] );
  ]
