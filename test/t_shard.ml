(* Tests for the keyspace shard map and the cross-shard BFT two-phase
   commit: routing properties of hash/range maps, atomicity and
   determinism of cross-shard transactions on adversary-free schedules
   (qcheck), the abort downgrade when a shard rejects its prepare, exact
   WAL replay of a shard unit, the forged and malformed steps and sends
   that each unit's evidence rules reject, Runner's rejection of invalid
   explicit batch-cut arguments, and that a sharded world leaves the
   Api.send stream untouched. *)

open Bp_sim
open Blockplane

(* --- a recording app: describe() lists every applied payload --- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

module Recorder = struct
  type state = { mutable applied : string list }

  let create ~participant:_ ~n_participants:_ = { applied = [] }

  (* The verification routine IS a participant's 2PC vote: a poisoned op
     inside a cross-shard prepare makes this shard vote NO. *)
  let verify _ = function
    | Record.Commit p -> not (contains ~sub:"poison" p)
    | _ -> true

  let apply st ~hash:_ = function
    | Record.Commit p -> st.applied <- p :: st.applied
    | _ -> ()

  let digest st = String.concat ";" (List.rev st.applied)
  let describe = digest
end

type world = { engine : Engine.t; dep : Deployment.t }

let make_world ?policy ?(seed = 77L) ?(app = (module Recorder : App.S)) ~shards () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper () in
  let map = Shard.make ?policy ~shards () in
  let dep =
    Deployment.create ~network:net ~n_participants:shards ~fi:1
      ~app ~shard_map:map ()
  in
  { engine; dep }

let applied_at w p = App.describe (Unit_node.app (Deployment.node w.dep p 0))

let run w = Engine.run ~until:(Time.of_sec 10.0) w.engine

(* --- shard map routing --- *)

let test_map_basics () =
  let h4 = Shard.make ~shards:4 () in
  Alcotest.(check int) "shards" 4 (Shard.shards h4);
  for i = 0 to 199 do
    let s = Shard.shard_of_key h4 (Printf.sprintf "key-%d" i) in
    Alcotest.(check bool) "hash shard in range" true (s >= 0 && s < 4);
    Alcotest.(check int) "hash deterministic" s
      (Shard.shard_of_key h4 (Printf.sprintf "key-%d" i))
  done;
  let one = Shard.make ~shards:1 () in
  Alcotest.(check int) "one shard owns everything" 0
    (Shard.shard_of_key one "anything");
  let r = Shard.make ~policy:(Shard.Range [| "b"; "c" |]) ~shards:3 () in
  Alcotest.(check int) "below first split" 0 (Shard.shard_of_key r "aardvark");
  Alcotest.(check int) "at a split point" 1 (Shard.shard_of_key r "b");
  Alcotest.(check int) "between splits" 1 (Shard.shard_of_key r "bzzz");
  Alcotest.(check int) "above last split" 2 (Shard.shard_of_key r "zebra");
  Alcotest.(check (list int)) "shards_of_keys sorted distinct" [ 0; 2 ]
    (Shard.shards_of_keys r [ "zzz"; "a"; "aa"; "z" ]);
  Alcotest.(check int) "coordinator = min shard" 1
    (Shard.coordinator [ 2; 1 ]);
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero shards rejected" true
    (raises (fun () -> Shard.make ~shards:0 ()));
  Alcotest.(check bool) "wrong split count rejected" true
    (raises (fun () -> Shard.make ~policy:(Shard.Range [| "m" |]) ~shards:3 ()));
  Alcotest.(check bool) "non-ascending splits rejected" true
    (raises (fun () -> Shard.make ~policy:(Shard.Range [| "m"; "m" |]) ~shards:3 ()))

let key_for_roundtrip =
  QCheck.Test.make ~count:200 ~name:"key_for lands on its shard"
    QCheck.(triple (int_range 1 16) (int_range 0 1_000_000) bool)
    (fun (shards, salt, use_range) ->
      let policy =
        if use_range then
          Shard.Range (Array.init (shards - 1) (fun i -> Printf.sprintf "s%02d" (i + 1)))
        else Shard.Hash
      in
      let m = Shard.make ~policy ~shards () in
      List.for_all
        (fun shard -> Shard.shard_of_key m (Shard.key_for m ~shard ~salt) = shard)
        (List.init shards Fun.id))

(* --- cross-shard commit: concrete atomicity --- *)

let range4 = Shard.Range [| "b"; "c"; "d" |]

(* Shard's 2PC messages, hand-encoded as a byzantine node would write
   them: a tag (1 Vote, 2 Decide, 3 Applied), the txid and, but for
   Applied, one bool; a Prepare below. *)
let xsm tag txid b =
  "__xsm:"
  ^ Bp_codec.Wire.encode (fun e ->
        Bp_codec.Wire.u8 e tag;
        Bp_codec.Wire.string e txid;
        Option.iter (Bp_codec.Wire.bool e) b)

(* A [Prepare] (tag 0) naming coordinator 0; one op unless [ops]. *)
let prepare_msg ?(ops = [ ("k", "op") ]) txid =
  "__xsm:"
  ^ Bp_codec.Wire.encode (fun e ->
        Bp_codec.Wire.u8 e 0;
        Bp_codec.Wire.string e txid;
        Bp_codec.Wire.varint e 0;
        Bp_codec.Wire.list e
          (fun (k, op) ->
            Bp_codec.Wire.string e k;
            Bp_codec.Wire.string e op)
          ops)

let vote_msg txid ~yes = xsm 1 txid (Some yes)
let decide_msg txid ~commit = xsm 2 txid (Some commit)
let applied_msg txid = xsm 3 txid None
let decide_step txid ~commit = Shard.xs_payload (Shard.Xs_decide { txid; commit })

(* Does each node of shard [p] hold [op]? *)
let applied_on w p op =
  List.map
    (fun node -> contains ~sub:op (App.describe (Unit_node.app node)))
    (Array.to_list (Deployment.nodes_of w.dep p))

let test_cross_shard_commit () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  let submit ops =
    Shard.submit router
      ~on_aborted:(fun () -> incr aborted)
      ~on_done:(fun () -> incr done_count)
      ops
  in
  submit [ ("a1", "op-t1") ];
  submit [ ("a2", "op-t2a"); ("a3", "op-t2b") ];
  submit [ ("a4", "op-t3a"); ("b1", "op-t3b") ];
  submit [ ("b2", "op-t4a"); ("c1", "op-t4b"); ("d1", "op-t4c") ];
  run w;
  Alcotest.(check int) "all four done" 4 !done_count;
  Alcotest.(check int) "no aborts" 0 !aborted;
  let st = Shard.stats router in
  Alcotest.(check int) "single-shard submissions" 2 st.Shard.single_shard;
  Alcotest.(check int) "cross-shard submissions" 2 st.Shard.cross_shard;
  Alcotest.(check int) "cross-shard commits" 2 st.Shard.committed;
  Alcotest.(check int) "no timeouts" 0 st.Shard.timeouts;
  (* Each op landed exactly on its owning shard... *)
  let s0 = applied_at w 0 and s1 = applied_at w 1 in
  let s2 = applied_at w 2 and s3 = applied_at w 3 in
  List.iter
    (fun op -> Alcotest.(check bool) (op ^ " on shard 0") true (contains ~sub:op s0))
    [ "op-t1"; "op-t2a"; "op-t2b"; "op-t3a" ];
  List.iter
    (fun op -> Alcotest.(check bool) (op ^ " on shard 1") true (contains ~sub:op s1))
    [ "op-t3b"; "op-t4a" ];
  Alcotest.(check bool) "op-t4b on shard 2" true (contains ~sub:"op-t4b" s2);
  Alcotest.(check bool) "op-t4c on shard 3" true (contains ~sub:"op-t4c" s3);
  (* ...and nowhere else. *)
  Alcotest.(check bool) "shard 0 has no foreign ops" false
    (contains ~sub:"op-t3b" s0 || contains ~sub:"op-t4a" s0);
  Alcotest.(check bool) "shard 1 has no foreign ops" false
    (contains ~sub:"op-t1" s1 || contains ~sub:"op-t4b" s1);
  (* Single-shard multi-op transactions preserve submission order. *)
  Alcotest.(check bool) "t2 ops in order" true
    (contains ~sub:"op-t2a;op-t2b" s0
    || contains ~sub:"op-t2a" s0 && contains ~sub:"op-t2b" s0);
  for p = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "participant %d replicas agree" p)
      true
      (Deployment.app_digests_agree w.dep p);
    Alcotest.(check int)
      (Printf.sprintf "participant %d staging drained" p)
      0
      (Api.xs_staged (Deployment.api w.dep p))
  done;
  T_apps.check_drained w.dep

(* --- abort downgrade: a rejected prepare is a NO vote --- *)

let test_cross_shard_abort () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "op-ok"); ("b1", "poison-op") ];
  run w;
  Alcotest.(check int) "aborted once" 1 !aborted;
  Alcotest.(check int) "never completed" 0 !done_count;
  let st = Shard.stats router in
  Alcotest.(check int) "abort counted" 1 st.Shard.aborted;
  Alcotest.(check int) "rejection counted" 1 st.Shard.prepares_rejected;
  Alcotest.(check int) "no commit" 0 st.Shard.committed;
  (* Atomic: the clean op on shard 0 must not survive its partner's NO. *)
  Alcotest.(check bool) "no partial application" false
    (contains ~sub:"op-ok" (applied_at w 0)
    || contains ~sub:"poison" (applied_at w 1));
  for p = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "participant %d staging drained" p)
      0
      (Api.xs_staged (Deployment.api w.dep p))
  done;
  T_apps.check_drained w.dep

(* The coordinator's own prepare is the rejected one: its abort decide
   and the decision it sends are legal with no vote delivered, and every
   shard ends with nothing applied and nothing staged. *)
let test_coordinator_no_aborts () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "poison-op"); ("b1", "op-b") ];
  run w;
  Alcotest.(check (pair int int)) "aborted" (0, 1) (!done_count, !aborted);
  Alcotest.(check (list bool)) "no node of shards 0 and 1 applied anything"
    (List.init 8 (fun _ -> false))
    (applied_on w 0 "poison" @ applied_on w 1 "op-b");
  for p = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "participant %d staging drained" p)
      0
      (Api.xs_staged (Deployment.api w.dep p))
  done;
  T_apps.check_drained w.dep

(* --- recovery: a shard unit's WAL replays exactly --- *)

(* Every decide step of x0 and x1, and every YES, decision and
   applied-ack about them to any shard. *)
let evidence_probes =
  List.concat_map
    (fun txid ->
      List.map (fun commit -> Record.Commit (decide_step txid ~commit)) [ true; false ]
      @ List.concat_map
          (fun dest ->
            List.map
              (fun payload -> Record.Comm { Record.dest; comm_seq = 0; payload })
              [
                decide_msg txid ~commit:true;
                decide_msg txid ~commit:false;
                vote_msg txid ~yes:true;
                applied_msg txid;
              ])
          [ 0; 1; 2; 3 ])
    [ "x0"; "x1" ]

(* Each lead node's WAL holds the 2PC steps and messages of a committed
   cross-shard transaction, an aborted one and a single-shard multi-op
   one. Replayed into a fresh Shard.instance it reproduces the live app
   state, evidence table included, with nothing left staged: the copy
   judges every decide step and 2PC send of those txids as the live node
   does. A plain App.make copy takes the steps for user commits and ends
   elsewhere, so the replay needs the wrapper. *)
let test_wal_replay () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  let submit ops =
    Shard.submit router
      ~on_aborted:(fun () -> incr aborted)
      ~on_done:(fun () -> incr done_count)
      ops
  in
  submit [ ("a1", "op-c0"); ("b1", "op-c1") ];
  submit [ ("a2", "op-ok"); ("c1", "poison-op") ];
  submit [ ("d1", "op-s1"); ("d2", "op-s2") ];
  run w;
  Alcotest.(check (pair int int)) "two done, one aborted" (2, 1) (!done_count, !aborted);
  for p = 0 to 3 do
    let node = Deployment.node w.dep p 0 in
    let image = Unit_node.wal_image node in
    let app, staged = Shard.instance (module Recorder) ~participant:p ~n_participants:4 in
    let count, tail = Unit_node.replay ~image ~app in
    Alcotest.(check int)
      (Printf.sprintf "participant %d: every record replayed" p)
      (Bp_storage.Log_store.length (Unit_node.log node))
      count;
    Alcotest.(check bool)
      (Printf.sprintf "participant %d: clean tail" p)
      true (Result.is_ok tail);
    Alcotest.(check string)
      (Printf.sprintf "participant %d: replay = live state" p)
      (Unit_node.app_digest node) (App.digest app);
    Alcotest.(check int) (Printf.sprintf "participant %d: nothing staged" p) 0 (staged ());
    let live = List.map (App.verify (Unit_node.app node)) evidence_probes in
    Alcotest.(check (list bool))
      (Printf.sprintf "participant %d: replay judges like the live node" p)
      live
      (List.map (App.verify app) evidence_probes);
    (* Shard 0 coordinated both txids and shard 1 committed x0. *)
    if p <= 1 then
      Alcotest.(check bool)
        (Printf.sprintf "participant %d: its evidence owes a send" p)
        true (List.exists Fun.id live);
    let plain = App.make (module Recorder) ~participant:p ~n_participants:4 in
    ignore (Unit_node.replay ~image ~app:plain);
    Alcotest.(check bool)
      (Printf.sprintf "participant %d: plain replay differs" p)
      false
      (String.equal (App.digest plain) (App.digest app))
  done

(* --- byzantine steps and sends: judged by the unit's own evidence --- *)

(* Submit [record] at participant [p] and count its outcomes. *)
let submit_counted w p record ~committed ~rejected =
  Api.submit_record (Deployment.api w.dep p) record
    ~on_done:(fun () -> incr committed)
    ~on_rejected:(fun () -> incr rejected)

(* One byzantine node of shard 0 offers a COMMIT decide for
   [test_cross_shard_abort]'s transaction at 10 ms, before shard 1's NO
   vote. Shard 0 coordinates it, and no YES from shard 1 was delivered,
   so the decide is rejected: the transaction aborts and no node of
   shard 0 applies its staged op. *)
let test_forged_decide_rejected () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "op-ok"); ("b1", "poison-op") ];
  let forged = decide_step "x0" ~commit:true in
  ignore
    (Engine.schedule_at w.engine (Time.of_ms 10.0) (fun () ->
         Unit_node.submit_record (Deployment.node w.dep 0 1) (Record.Commit forged)
           ~on_result:ignore));
  run w;
  let applied node = contains ~sub:"op-ok" (App.describe (Unit_node.app node)) in
  let shard0 = Array.to_list (Deployment.nodes_of w.dep 0) in
  Alcotest.(check (triple int int int))
    "the txn aborts and no shard-0 node applied op-ok" (1, 0, 0)
    (!aborted, !done_count, List.length (List.filter applied shard0))

(* Shard 2's NO vote aborts the transaction; as the coordinator's abort
   decide executes, participant 0 also sends a COMMIT [Decide] message
   to shard 1. Shard 0 committed an abort, so the send is rejected at
   its source and shard 1 applies nothing. (The rejected send holds the
   sequence number before the honest abort's, so shard 1 never learns
   the abort either and keeps its slice staged; ROADMAP item 20.) *)
let test_forged_decide_after_abort () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 and forged = ref false in
  let api0 = Deployment.api w.dep 0 in
  let abort = decide_step "x0" ~commit:false in
  Api.on_commit api0 (fun payload ->
      if String.equal payload abort then
        Api.send api0 ~dest:1 (decide_msg "x0" ~commit:true) ~on_done:(fun () ->
            forged := true));
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "op-a"); ("b1", "op-b"); ("c1", "poison-op") ];
  run w;
  let shard1 = List.filter (fun s -> s <> "") (String.split_on_char ';' (applied_at w 1)) in
  Alcotest.(check bool) "shard 1 replicas agree" true (Deployment.app_digests_agree w.dep 1);
  Alcotest.(check bool) "the forged COMMIT never commits" false !forged;
  Alcotest.(check (triple int int (list string)))
    "the txn aborts and shard 1 applied nothing" (1, 0, [])
    (!aborted, !done_count, shard1)

(* Shard 3 participates in x0, coordinated by shard 0; shard 2 does not.
   As shard 3's prepare executes, participant 2 sends shard 3 an abort
   decision for x0. Shard 2 committed no decide for x0 and prepared no
   shard for it, so the send is rejected at its source. The honest
   decision reaches shard 3, and every node of both shards applies its
   op. *)
let test_forged_abort_from_uninvolved_shard () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  let fired = ref false and forged = ref false in
  let api2 = Deployment.api w.dep 2 and api3 = Deployment.api w.dep 3 in
  Api.on_commit api3 (fun payload ->
      if (not !fired) && String.starts_with ~prefix:"__xs:" payload then begin
        fired := true;
        Api.send api2 ~dest:3 (decide_msg "x0" ~commit:false) ~on_done:(fun () ->
            forged := true)
      end);
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "op-a"); ("d1", "op-d") ];
  run w;
  Alcotest.(check bool) "the forged abort was sent" true !fired;
  Alcotest.(check (pair int int)) "the txn commits" (1, 0) (!done_count, !aborted);
  Alcotest.(check (list bool)) "every node of shards 0 and 3 applied its op"
    (List.init 8 (fun _ -> true))
    (applied_on w 0 "op-a" @ applied_on w 3 "op-d");
  Alcotest.(check bool) "the forged abort never commits" false !forged

(* Shard 3 takes part in x0 (op-d), coordinated by shard 0 (op-a). A
   byzantine node of shard 3 sends shard 1 a Prepare for x0 of its own,
   whose forged slice shard 1's honest router stages and votes YES on,
   and offers an abort of x0. [early] sends the Prepare as the
   transaction is submitted, before shard 0's Prepare is delivered, and
   offers the abort once the send commits; otherwise both go as shard
   3's prepare executes. Returns the world, how many of the two records
   committed and the transaction's (done, aborted). *)
let forged_prepare_then_abort ~early =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 and committed = ref 0 in
  let api3 = Deployment.api w.dep 3 in
  let abort () =
    Unit_node.submit_record (Deployment.node w.dep 3 1)
      (Record.Commit (decide_step "x0" ~commit:false))
      ~on_result:(fun r -> if not (String.equal r "__rejected") then incr committed)
  in
  let attack () =
    Api.send api3 ~dest:1
      (prepare_msg ~ops:[ ("b7", "op-forged") ] "x0")
      ~on_done:(fun () ->
        incr committed;
        if early then abort ());
    if not early then abort ()
  in
  let fired = ref false in
  Api.on_commit api3 (fun payload ->
      if (not (early || !fired)) && String.starts_with ~prefix:"__xs:" payload then begin
        fired := true;
        attack ()
      end);
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "op-a"); ("d1", "op-d") ];
  if early then attack ();
  run w;
  Alcotest.(check bool) "the records were offered" true (early || !fired);
  (w, !committed, (!done_count, !aborted))

(* Before shard 0's Prepare is delivered, shard 3 has none: it
   coordinates a txid of its own, so both records commit. The delivered
   Prepare then makes the txid contested, so shard 3 never stages op-d,
   votes NO, and x0 aborts: neither shard applies its op. (Judged by
   what shard 3 sent, the delivered Prepare let it stage op-d and vote
   YES, and shard 0 applied op-a while shard 3 had decided abort.) *)
let test_forged_prepare_then_abort_early () =
  let w, records, outcome = forged_prepare_then_abort ~early:true in
  Alcotest.(check (list bool)) "no node of shards 0 and 3 applied its op"
    (List.init 8 (fun _ -> false))
    (applied_on w 0 "op-a" @ applied_on w 3 "op-d");
  Alcotest.(check int) "both records commit" 2 records;
  Alcotest.(check (pair int int)) "the txn aborts" (0, 1) outcome

(* After shard 0's Prepare is delivered, shard 3 takes part in x0: it
   may send no Prepare for x0 and must follow shard 0's decision, so
   both records are rejected and x0 commits on both shards. *)
let test_forged_prepare_then_abort_late () =
  let w, records, outcome = forged_prepare_then_abort ~early:false in
  Alcotest.(check int) "neither record commits" 0 records;
  Alcotest.(check (pair int int)) "the txn commits" (1, 0) outcome;
  Alcotest.(check (list bool)) "every node of shards 0 and 3 applied its op"
    (List.init 8 (fun _ -> true))
    (applied_on w 0 "op-a" @ applied_on w 3 "op-d")

(* Shard 0 rejects its poisoned prepare, so x0 must abort. As x0 is
   submitted, a byzantine node of shard 3 sends shard 1 a Prepare for
   x0. It offers a COMMIT decide for x0 when shard 1's YES is delivered
   and as each of shard 3's steps executes (here only the router's
   abort). Shard 0's Prepare makes shard 3's txid contested, so it
   never stages op-d and every COMMIT is rejected. (Judged by what
   shard 3 sent, shard 1's YES completed shard 3's certificate and it
   applied op-d.) *)
let test_forged_prepare_then_commit () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  let committed = ref 0 and rejected = ref 0 in
  let api3 = Deployment.api w.dep 3 in
  let offer_commit () =
    Unit_node.submit_record (Deployment.node w.dep 3 1)
      (Record.Commit (decide_step "x0" ~commit:true))
      ~on_result:(fun r -> incr (if String.equal r "__rejected" then rejected else committed))
  in
  Api.on_receive api3 (fun ~src payload ->
      if src = 1 && String.equal payload (vote_msg "x0" ~yes:true) then offer_commit ());
  Api.on_commit api3 (fun payload ->
      if String.starts_with ~prefix:"__xs:" payload then offer_commit ());
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "poison-a"); ("d1", "op-d") ];
  Api.send api3 ~dest:1 (prepare_msg ~ops:[ ("b7", "op-forged") ] "x0") ~on_done:ignore;
  run w;
  Alcotest.(check (list bool)) "no node of shards 0 and 3 applied its op"
    (List.init 8 (fun _ -> false))
    (applied_on w 0 "poison-a" @ applied_on w 3 "op-d");
  Alcotest.(check (pair int int)) "both COMMITs rejected" (0, 2) (!committed, !rejected);
  Alcotest.(check (pair int int)) "the txn aborts" (0, 1) (!done_count, !aborted)

(* No shard prepared x999 and no decision for it was delivered anywhere,
   so a decide for it, commit or abort, is rejected. *)
let test_fabricated_decide_rejected () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let committed = ref 0 and rejected = ref 0 in
  List.iter
    (fun commit ->
      submit_counted w 0
        (Record.Commit (decide_step "x999" ~commit))
        ~committed ~rejected)
    [ true; false ];
  run w;
  Alcotest.(check (pair int int)) "both decides rejected" (0, 2) (!committed, !rejected)

(* Shard 1 rejects its poisoned prepare. As the Prepare is delivered,
   participant 1 also sends the coordinator a YES. Shard 1's prepare
   never committed, so the YES is rejected at its source: the
   coordinator never decides COMMIT, and shard 0 applies nothing. (The
   rejected YES holds the sequence number before the honest NO's, so
   the coordinator aborts on its timeout.) *)
let test_forged_yes_after_no () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  let fired = ref false and forged = ref false in
  let api1 = Deployment.api w.dep 1 in
  Api.on_receive api1 (fun ~src:_ _ ->
      if not !fired then begin
        fired := true;
        Api.send api1 ~dest:0 (vote_msg "x0" ~yes:true) ~on_done:(fun () ->
            forged := true)
      end);
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "op-a"); ("b1", "poison-op") ];
  run w;
  Alcotest.(check bool) "the forged YES was sent" true !fired;
  Alcotest.(check bool) "the forged YES never commits" false !forged;
  Alcotest.(check (pair int int)) "the txn aborts" (0, 1) (!done_count, !aborted);
  Alcotest.(check int) "no commit decided" 0 (Shard.stats router).Shard.committed;
  Alcotest.(check (list bool)) "no node of shards 0 and 1 applied anything"
    (List.init 8 (fun _ -> false))
    (applied_on w 0 "op-a" @ applied_on w 1 "poison")

(* As shard 1's prepare executes, byzantine node (1,1) offers a decide
   of each kind for x0, and a second prepare that would swap the staged
   slice. Shard 0's decision has not been delivered and x0 is already
   prepared, so all three are rejected; the honest decision that
   follows commits the transaction's own ops everywhere. *)
let test_participant_decide_needs_coordinator () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  let committed = ref 0 and rejected = ref 0 and fired = ref false in
  Api.on_commit (Deployment.api w.dep 1) (fun payload ->
      if (not !fired) && String.starts_with ~prefix:"__xs:" payload then begin
        fired := true;
        List.iter
          (fun step ->
            Unit_node.submit_record (Deployment.node w.dep 1 1) (Record.Commit step)
              ~on_result:(fun r ->
                incr (if String.equal r "__rejected" then rejected else committed)))
          [
            decide_step "x0" ~commit:true;
            decide_step "x0" ~commit:false;
            Shard.xs_payload (Shard.Xs_prepare { txid = "x0"; ops = [ ("b9", "op-evil") ] });
          ]
      end);
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "op-a"); ("b1", "op-b") ];
  run w;
  Alcotest.(check (pair int int)) "early decides and second prepare rejected" (0, 3)
    (!committed, !rejected);
  Alcotest.(check (pair int int)) "the txn commits" (1, 0) (!done_count, !aborted);
  Alcotest.(check (list bool)) "every node of shards 0 and 1 applied its op"
    (List.init 8 (fun _ -> true))
    (applied_on w 0 "op-a" @ applied_on w 1 "op-b");
  Alcotest.(check (list bool)) "no node of shard 1 applied the swapped slice"
    (List.init 4 (fun _ -> false))
    (applied_on w 1 "op-evil")

(* As shard 0's Prepare for x0 is delivered to shard 1, participant 1
   submits a prepare of x0 with a slice of its own just before the
   router's honest prepare (its handler runs first), so the swap is
   ordered first. A participant prepares only the ops its Prepare
   delivered, so the swap is rejected and x0 commits its own ops on
   both shards. (When any first prepare counted, the swap committed and
   the honest prepare was the rejected one.) *)
let test_participant_prepares_delivered_ops () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  let committed = ref 0 and fired = ref false in
  let api1 = Deployment.api w.dep 1 in
  Api.on_receive api1 (fun ~src:_ _ ->
      if not !fired then begin
        fired := true;
        Api.log_commit api1
          (Shard.xs_payload (Shard.Xs_prepare { txid = "x0"; ops = [ ("b9", "op-evil") ] }))
          ~on_done:(fun () -> incr committed)
      end);
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "op-a"); ("b1", "op-b") ];
  run w;
  Alcotest.(check int) "the swapped prepare never commits" 0 !committed;
  Alcotest.(check (pair int int)) "the txn commits" (1, 0) (!done_count, !aborted);
  Alcotest.(check (list bool)) "every node of shards 0 and 1 applied its op, none op-evil"
    (List.init 12 (fun i -> i < 8))
    (applied_on w 0 "op-a" @ applied_on w 1 "op-b" @ applied_on w 1 "op-evil")

(* Steps with no ops or an undecodable body are rejected; an honest
   cross-shard transaction submitted afterwards still commits. *)
let test_malformed_steps_rejected () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let committed = ref 0 and rejected = ref 0 in
  let bad =
    [
      Shard.xs_payload (Shard.Xs_prepare { txid = "x90"; ops = [] });
      Shard.xs_payload (Shard.Xs_apply { txid = "x91"; ops = [] });
      "__xs:\xff";
      decide_step "x92" ~commit:true ^ "trailing";
    ]
  in
  List.iter (fun p -> submit_counted w 0 (Record.Commit p) ~committed ~rejected) bad;
  let done_count = ref 0 in
  ignore
    (Engine.schedule w.engine ~after:(Time.of_sec 1.0) (fun () ->
         Shard.submit router
           ~on_done:(fun () -> incr done_count)
           [ ("a1", "op-a"); ("c1", "op-c") ]));
  run w;
  Alcotest.(check (pair int int)) "all four rejected" (0, 4) (!committed, !rejected);
  Alcotest.(check int) "the honest transaction still commits" 1 !done_count;
  Alcotest.(check (list bool)) "every node of shards 0 and 2 applied its op"
    (List.init 8 (fun _ -> true))
    (applied_on w 0 "op-a" @ applied_on w 2 "op-c")

(* Three cross-shard transactions, each submitted when the previous one
   is done, all commit. *)
let test_sequential_transactions () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 in
  let rec go i =
    if i <= 3 then
      Shard.submit router
        ~on_done:(fun () ->
          incr done_count;
          go (i + 1))
        [ (Printf.sprintf "a%d" i, Printf.sprintf "op-%da" i);
          (Printf.sprintf "b%d" i, Printf.sprintf "op-%db" i) ]
  in
  go 1;
  run w;
  Alcotest.(check int) "three done" 3 !done_count;
  Alcotest.(check int) "three commits" 3 (Shard.stats router).Shard.committed;
  Alcotest.(check string) "shard 0 applied in order" "op-1a;op-2a;op-3a" (applied_at w 0);
  Alcotest.(check string) "shard 1 applied in order" "op-1b;op-2b;op-3b" (applied_at w 1)

(* Synthetic records for the record-by-record tests: the [Comm], [Recv]
   and step records that hold the 2PC messages and steps. *)
let comm dest payload = Record.Comm { Record.dest; comm_seq = 0; payload }

let recv ~self src tpayload =
  Record.Recv
    {
      Record.src;
      tdest = self;
      tcomm_seq = 0;
      log_pos = 0;
      tpayload;
      proofs = [];
      geo_proofs = [];
    }

let step xs = Record.Commit (Shard.xs_payload xs)
let decide txid commit = step (Shard.Xs_decide { txid; commit })
let prepare txid = step (Shard.Xs_prepare { txid; ops = [ ("k", "op") ] })

let check app what expected record =
  Alcotest.(check bool) what expected (App.verify app record)

(* The rules record by record, on one node's app fed synthetic records:
   participant 0 coordinates x0 over shards 1 and 2, and participant 1
   takes part in x1, coordinated by shard 0. *)
let test_evidence_rules () =
  (* The coordinator. *)
  let c, staged = Shard.instance (module Recorder) ~participant:0 ~n_participants:4 in
  let feed r = App.apply c ~hash:Fun.id r in
  check c "no evidence: no abort" false (decide "x0" false);
  List.iter (fun d -> feed (comm d (prepare_msg "x0"))) [ 1; 2 ];
  check c "coordinator may abort" true (decide "x0" false);
  feed (recv ~self:0 1 (vote_msg "x0" ~yes:true));
  feed (recv ~self:0 2 (vote_msg "x0" ~yes:true));
  check c "no commit without its own prepare" false (decide "x0" true);
  feed (prepare "x0");
  Alcotest.(check int) "one slice staged" 1 (staged ());
  check c "no second prepare" false (prepare "x0");
  check c "all YES and staged: commit" true (decide "x0" true);
  check c "no decision sent before deciding" false (comm 1 (decide_msg "x0" ~commit:true));
  feed (decide "x0" true);
  Alcotest.(check int) "slice applied" 0 (staged ());
  check c "one decide per txid" false (decide "x0" false);
  check c "the decision to a prepared shard" true (comm 1 (decide_msg "x0" ~commit:true));
  check c "not the other value" false (comm 2 (decide_msg "x0" ~commit:false));
  check c "not to an unprepared shard" false (comm 3 (decide_msg "x0" ~commit:true));
  (* A certificate short of one vote. *)
  List.iter (fun d -> feed (comm d (prepare_msg "x9"))) [ 1; 2 ];
  feed (prepare "x9");
  feed (recv ~self:0 1 (vote_msg "x9" ~yes:true));
  check c "no commit without every YES" false (decide "x9" true);
  (* The participant. *)
  let p, _ = Shard.instance (module Recorder) ~participant:1 ~n_participants:4 in
  let feed r = App.apply p ~hash:Fun.id r in
  feed (recv ~self:1 0 (prepare_msg "x1"));
  check p "no YES before the prepare commits" false (comm 0 (vote_msg "x1" ~yes:true));
  feed (prepare "x1");
  check p "YES to the Prepare's source" true (comm 0 (vote_msg "x1" ~yes:true));
  check p "no YES to another shard" false (comm 2 (vote_msg "x1" ~yes:true));
  check p "no decide before the decision" false (decide "x1" false);
  feed (recv ~self:1 2 (decide_msg "x1" ~commit:false));
  check p "a decision from another shard counts for nothing" false (decide "x1" false);
  feed (recv ~self:1 0 (decide_msg "x1" ~commit:true));
  feed (recv ~self:1 0 (decide_msg "x1" ~commit:false));
  check p "the first decision from the source" true (decide "x1" true);
  check p "not a later one" false (decide "x1" false);
  check p "no applied-ack before deciding" false (comm 0 (applied_msg "x1"));
  feed (decide "x1" true);
  check p "applied-ack to the source" true (comm 0 (applied_msg "x1"));
  check p "no applied-ack to another shard" false (comm 2 (applied_msg "x1"));
  check p "YES still legal after the decide" true (comm 0 (vote_msg "x1" ~yes:true))

(* A coordinator's certificate names each shard it prepared once: a
   repeated YES from shard 1 and a YES from shard 3, which it never
   prepared, do not stand in for shard 2's. *)
let test_yes_counts_once_per_prepared_shard () =
  let c, _ = Shard.instance (module Recorder) ~participant:0 ~n_participants:4 in
  let feed r = App.apply c ~hash:Fun.id r in
  List.iter (fun d -> feed (comm d (prepare_msg "x0"))) [ 1; 2 ];
  feed (prepare "x0");
  feed (recv ~self:0 1 (vote_msg "x0" ~yes:true));
  feed (recv ~self:0 1 (vote_msg "x0" ~yes:true));
  feed (recv ~self:0 3 (vote_msg "x0" ~yes:true));
  feed (recv ~self:0 2 (vote_msg "x0" ~yes:false));
  check c "no commit: shard 2 voted NO" false (decide "x0" true);
  feed (recv ~self:0 2 (vote_msg "x0" ~yes:true));
  check c "commit once shard 2's YES is delivered" true (decide "x0" true)

(* A participant whose coordinator decided abort still owes the YES its
   committed prepare promised (a late send must not leave a hole in its
   channel), owes no applied-ack, and keeps nothing staged. *)
let test_abort_keeps_owed_yes () =
  let p, staged = Shard.instance (module Recorder) ~participant:1 ~n_participants:4 in
  let feed r = App.apply p ~hash:Fun.id r in
  feed (recv ~self:1 0 (prepare_msg "x1"));
  feed (prepare "x1");
  feed (recv ~self:1 0 (decide_msg "x1" ~commit:false));
  check p "the abort decide" true (decide "x1" false);
  feed (decide "x1" false);
  Alcotest.(check int) "the slice is dropped" 0 (staged ());
  Alcotest.(check string) "nothing applied" "" (App.describe p);
  check p "the YES is still owed" true (comm 0 (vote_msg "x1" ~yes:true));
  check p "no applied-ack for an abort" false (comm 0 (applied_msg "x1"));
  check p "no second decide" false (decide "x1" true)

(* An app that rejects every send: a [Prepare], a NO and a plain payload
   are its to judge, while a YES that the evidence owes is the
   wrapper's. *)
module No_sends = struct
  include Recorder

  let verify st = function Record.Comm _ -> false | r -> Recorder.verify st r
end

let test_inputs_go_to_the_inner_app () =
  let p, _ = Shard.instance (module No_sends) ~participant:1 ~n_participants:4 in
  let feed r = App.apply p ~hash:Fun.id r in
  check p "a Prepare send" false (comm 2 (prepare_msg "x1"));
  check p "a NO send" false (comm 0 (vote_msg "x1" ~yes:false));
  check p "a plain send" false (comm 0 "hello");
  feed (recv ~self:1 0 (prepare_msg "x1"));
  feed (prepare "x1");
  check p "an owed YES" true (comm 0 (vote_msg "x1" ~yes:true));
  let q, _ = Shard.instance (module Recorder) ~participant:1 ~n_participants:4 in
  check q "a Prepare send the inner app accepts" true (comm 2 (prepare_msg "x1"));
  check q "a NO send the inner app accepts" true (comm 0 (vote_msg "x1" ~yes:false))

(* A deployment whose app rejects every send, so the coordinator's
   Prepares never commit: no vote arrives, and on its timeout the
   coordinator, which prepared and was delivered no Prepare, still
   commits the abort. The transaction reports aborted and no shard keeps
   a slice staged. *)
let test_abort_without_prepare_sends () =
  let w = make_world ~policy:range4 ~app:(module No_sends) ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "op-a"); ("b1", "op-b") ];
  run w;
  Alcotest.(check (pair int int)) "the txn aborts" (0, 1) (!done_count, !aborted);
  Alcotest.(check int) "on the timeout" 1 (Shard.stats router).Shard.timeouts;
  Alcotest.(check (list bool)) "no node of shards 0 and 1 applied its op"
    (List.init 8 (fun _ -> false))
    (applied_on w 0 "op-a" @ applied_on w 1 "op-b");
  for p = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "participant %d staging drained" p)
      0
      (Api.xs_staged (Deployment.api w.dep p))
  done

(* A unit's role in a txid comes from the Prepare delivered to it, not
   from the Prepares it sent, and a Prepare delivered after its own
   prepare changes nothing. *)
let test_role_from_delivered_evidence () =
  (* A participant sends no Prepare and stages only the delivered ops. *)
  let p, _ = Shard.instance (module Recorder) ~participant:3 ~n_participants:4 in
  let feed r = App.apply p ~hash:Fun.id r in
  feed (recv ~self:3 0 (prepare_msg "x0"));
  check p "no Prepare send" false (comm 1 (prepare_msg "x0"));
  check p "no other slice" false
    (step (Shard.Xs_prepare { txid = "x0"; ops = [ ("k", "other") ] }));
  check p "the delivered slice" true (prepare "x0");
  (* Contested: it sent a Prepare, then one was delivered. *)
  let q, _ = Shard.instance (module Recorder) ~participant:3 ~n_participants:4 in
  let feed r = App.apply q ~hash:Fun.id r in
  feed (comm 1 (prepare_msg "x0"));
  check q "abort before any delivery" true (decide "x0" false);
  feed (recv ~self:3 0 (prepare_msg "x0"));
  feed (recv ~self:3 1 (vote_msg "x0" ~yes:true));
  check q "a contested txid never prepares" false (prepare "x0");
  check q "nor commits" false (decide "x0" true);
  check q "but may abort" true (decide "x0" false);
  check q "no YES" false (comm 0 (vote_msg "x0" ~yes:true));
  (* A coordinator stays one. *)
  let c, _ = Shard.instance (module Recorder) ~participant:0 ~n_participants:4 in
  let feed r = App.apply c ~hash:Fun.id r in
  feed (prepare "x0");
  check c "a prepared coordinator may abort with no Prepare sent" true (decide "x0" false);
  check c "but not commit" false (decide "x0" true);
  feed (comm 1 (prepare_msg "x0"));
  feed (recv ~self:0 2 (prepare_msg "x0"));
  check c "a late delivered Prepare owes no YES" false (comm 2 (vote_msg "x0" ~yes:true));
  feed (recv ~self:0 1 (vote_msg "x0" ~yes:true));
  check c "the coordinator still commits" true (decide "x0" true)

(* [digest] is the inner app's while no 2PC record has executed, and
   every evidence entry moves it; a plain send does not. *)
let test_digest_covers_evidence () =
  let w, _ = Shard.instance (module Recorder) ~participant:0 ~n_participants:4 in
  let plain = App.make (module Recorder) ~participant:0 ~n_participants:4 in
  List.iter
    (fun r ->
      App.apply w ~hash:Fun.id r;
      App.apply plain ~hash:Fun.id r)
    [ Record.Commit "op-1"; comm 1 "hello"; recv ~self:0 1 "hi" ];
  Alcotest.(check string) "no evidence: the inner app's digest" (App.digest plain)
    (App.digest w);
  let before = App.digest w in
  App.apply w ~hash:Fun.id (comm 1 (prepare_msg "x0"));
  Alcotest.(check bool) "a sent Prepare moves it" false (String.equal before (App.digest w));
  let after_prepare = App.digest w in
  App.apply w ~hash:Fun.id (recv ~self:0 1 (vote_msg "x0" ~yes:true));
  Alcotest.(check bool) "a delivered YES moves it" false
    (String.equal after_prepare (App.digest w))

(* Two copies that execute the same per-txid records for 16 txids, one
   in ascending and one in descending txid order, reach the same digest:
   the evidence table's bucket order does not leak into it. *)
let test_digest_ignores_txid_order () =
  let records txid =
    [ comm 1 (prepare_msg txid); prepare txid; recv ~self:0 1 (vote_msg txid ~yes:true) ]
  in
  let digest_of txids =
    let app, _ = Shard.instance (module Recorder) ~participant:0 ~n_participants:4 in
    List.iter (App.apply app ~hash:Fun.id) (List.concat_map records txids);
    App.digest app
  in
  let txids = List.init 16 (Printf.sprintf "x%d") in
  Alcotest.(check string) "same digest" (digest_of txids) (digest_of (List.rev txids))

(* A single-shard multi-op transaction with one op the app rejects is
   rejected whole: it reports aborted and no node applies either op. *)
let test_single_shard_multi_op_rejected_whole () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "op-a"); ("a2", "poison-op") ];
  run w;
  Alcotest.(check (pair int int)) "rejected" (0, 1) (!done_count, !aborted);
  Alcotest.(check int) "counted single-shard" 1 (Shard.stats router).Shard.single_shard;
  Alcotest.(check (list bool)) "no node of shard 0 applied either op"
    (List.init 8 (fun _ -> false))
    (applied_on w 0 "op-a" @ applied_on w 0 "poison")

(* Shard 2 votes NO on a three-shard transaction: shard 1, which voted
   YES, drops its staged slice when the coordinator's abort is
   delivered, and no node of any shard applies an op. *)
let test_no_among_three_drops_every_slice () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "op-a"); ("b1", "op-b"); ("c1", "poison-op") ];
  run w;
  Alcotest.(check (pair int int)) "aborted" (0, 1) (!done_count, !aborted);
  Alcotest.(check (list bool)) "no node of shards 0, 1 and 2 applied anything"
    (List.init 12 (fun _ -> false))
    (applied_on w 0 "op-a" @ applied_on w 1 "op-b" @ applied_on w 2 "poison");
  for p = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "participant %d staging drained" p)
      0
      (Api.xs_staged (Deployment.api w.dep p))
  done

(* x0 runs over shards 0 and 1. At the first record of shard 1's that
   [trigger] picks (a delivered payload or an executed commit),
   participant 1 sends [msg] to shard [dest]. Returns the world, whether
   that send committed, and the transaction's (done, aborted). *)
let forged_send_from_shard1 ~trigger ~dest msg =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  let fired = ref false and forged = ref false in
  let api1 = Deployment.api w.dep 1 in
  let offer payload =
    if (not !fired) && trigger payload then begin
      fired := true;
      Api.send api1 ~dest msg ~on_done:(fun () -> forged := true)
    end
  in
  Api.on_receive api1 (fun ~src:_ payload -> offer payload);
  Api.on_commit api1 offer;
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "op-a"); ("b1", "op-b") ];
  run w;
  Alcotest.(check bool) "the forged send was offered" true !fired;
  (w, !forged, (!done_count, !aborted))

(* As the coordinator's COMMIT decision is delivered, before shard 1
   commits its own decide, participant 1 sends an applied-ack. It is
   rejected, so the coordinator cannot report the transaction done on
   it. (The rejected ack holds the sequence number before the honest
   one's, so the transaction never completes; ROADMAP item 20.) Shard 1
   still commits the delivered decision and applies op-b. *)
let test_forged_applied_rejected () =
  let w, forged, outcome =
    forged_send_from_shard1 ~trigger:(String.equal (decide_msg "x0" ~commit:true)) ~dest:0
      (applied_msg "x0")
  in
  Alcotest.(check bool) "the early applied-ack never commits" false forged;
  Alcotest.(check (pair int int)) "never reported done" (0, 0) outcome;
  Alcotest.(check (list bool)) "every node of shard 1 applied op-b"
    (List.init 4 (fun _ -> true))
    (applied_on w 1 "op-b")

(* As shard 1's prepare executes, participant 1 sends a YES to shard 2,
   which sent it no Prepare. The send is rejected, and x0 still commits
   on shards 0 and 1. *)
let test_yes_to_a_non_coordinator_rejected () =
  let w, forged, outcome =
    forged_send_from_shard1 ~trigger:(String.starts_with ~prefix:"__xs:") ~dest:2
      (vote_msg "x0" ~yes:true)
  in
  Alcotest.(check bool) "the misdirected YES never commits" false forged;
  Alcotest.(check (pair int int)) "the txn commits" (1, 0) outcome;
  Alcotest.(check (list bool)) "every node of shards 0 and 1 applied its op"
    (List.init 8 (fun _ -> true))
    (applied_on w 0 "op-a" @ applied_on w 1 "op-b")

(* As shard 0's COMMIT decide for x0 (over shards 0 and 1) executes,
   participant 0 also sends the decision to shard 3, which it never
   prepared: the send is rejected, x0 commits, and shard 3 applies
   nothing. *)
let test_decision_to_an_unprepared_shard_rejected () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and forged = ref false in
  let api0 = Deployment.api w.dep 0 in
  let commit = decide_step "x0" ~commit:true in
  Api.on_commit api0 (fun payload ->
      if String.equal payload commit then
        Api.send api0 ~dest:3 (decide_msg "x0" ~commit:true) ~on_done:(fun () ->
            forged := true));
  Shard.submit router ~on_done:(fun () -> incr done_count) [ ("a1", "op-a"); ("b1", "op-b") ];
  run w;
  Alcotest.(check bool) "the decision to shard 3 never commits" false !forged;
  Alcotest.(check int) "the txn commits" 1 !done_count;
  Alcotest.(check (list string)) "shard 3 applied nothing" []
    (List.filter (fun s -> s <> "") (String.split_on_char ';' (applied_at w 3)))

(* Under a Hash map, a transaction over keys of every shard commits and
   each node applies exactly its own shard's op. *)
let test_cross_shard_commit_hash_map () =
  let w = make_world ~policy:Shard.Hash ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let map = Deployment.shard_map w.dep in
  let done_count = ref 0 in
  Shard.submit router
    ~on_done:(fun () -> incr done_count)
    (List.init 4 (fun s -> (Shard.key_for map ~shard:s ~salt:7, Printf.sprintf "op-h%d" s)));
  run w;
  Alcotest.(check int) "done" 1 !done_count;
  Alcotest.(check int) "one cross-shard commit" 1 (Shard.stats router).Shard.committed;
  for p = 0 to 3 do
    for s = 0 to 3 do
      Alcotest.(check (list bool))
        (Printf.sprintf "shard %d nodes hold op-h%d" p s)
        (List.init 4 (fun _ -> p = s))
        (applied_on w p (Printf.sprintf "op-h%d" s))
    done
  done

(* --- qcheck: adversary-free schedules commit atomically and
       deterministically --- *)

type txn = { salts : (int * int) list (* (shard, salt) *) }

let gen_schedule =
  QCheck.Gen.(
    let* shards = int_range 2 4 in
    let* n_txns = int_range 1 10 in
    let txn =
      let* width = int_range 1 (min 3 shards) in
      let* first = int_range 0 (shards - 1) in
      let* salt = int_range 0 9999 in
      (* [width] distinct shards starting at a random one, wrapping. *)
      return { salts = List.init width (fun i -> ((first + i) mod shards, salt + i)) }
    in
    let* txns = list_repeat n_txns txn in
    let* seed = int_range 1 100_000 in
    return (shards, txns, seed))

let run_schedule (shards, txns, seed) =
  let policy =
    Shard.Range (Array.init (shards - 1) (fun i -> Printf.sprintf "s%02d" (i + 1)))
  in
  let w = make_world ~policy ~seed:(Int64.of_int seed) ~shards () in
  let router = Deployment.shard_router w.dep in
  let map = Deployment.shard_map w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  List.iteri
    (fun i txn ->
      let ops =
        List.map
          (fun (s, salt) ->
            (Shard.key_for map ~shard:s ~salt, Printf.sprintf "op-%d-s%d" i s))
          txn.salts
      in
      Shard.submit router
        ~on_aborted:(fun () -> incr aborted)
        ~on_done:(fun () -> incr done_count)
        ops)
    txns;
  run w;
  let states = List.init shards (applied_at w) in
  (!done_count, !aborted, Shard.stats router, states)

let atomic_deterministic =
  QCheck.Test.make ~count:12 ~name:"cross-shard 2PC atomic + deterministic"
    (QCheck.make gen_schedule) (fun ((shards, txns, _) as sched) ->
      let done1, aborted1, st1, states1 = run_schedule sched in
      (* Adversary-free: every transaction commits, none abort. *)
      done1 = List.length txns
      && aborted1 = 0
      && st1.Shard.aborted = 0
      && st1.Shard.timeouts = 0
      && st1.Shard.single_shard + st1.Shard.cross_shard = List.length txns
      (* Atomic: every op of every txn landed exactly on its own shard. *)
      && List.for_all2
           (fun i txn ->
             List.for_all
               (fun (s, _salt) ->
                 let op = Printf.sprintf "op-%d-s%d" i s in
                 List.for_all2
                   (fun p state -> contains ~sub:op state = (p = s))
                   (List.init shards Fun.id)
                   states1)
               txn.salts)
           (List.init (List.length txns) Fun.id)
           txns
      (* Deterministic: an identical world replays to identical state. *)
      &&
      let done2, aborted2, st2, states2 = run_schedule sched in
      done1 = done2 && aborted1 = aborted2 && st1 = st2 && states1 = states2)

(* --- Runner: explicit batch-cut arguments are judged, never clamped --- *)

let test_runner_knobs () =
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  let world = Bp_harness.Runner.fresh_world in
  Alcotest.(check bool) "explicit min-fill > batch_max rejected" true
    (raises (fun () ->
         world ~batch_max:1 ~batch_min_fill:16 ~batch_hold:(Time.of_ms 0.25)
           ~n_participants:1 ()));
  Alcotest.(check bool) "min-fill without any hold rejected" true
    (raises (fun () -> world ~batch_min_fill:4 ~n_participants:1 ()))

(* --- sharding leaves plain sends alone --- *)

(* The router of a sharded deployment listens on every unit's receive
   stream but consumes only its own 2PC messages: all 12 ordered pairs
   of a four-participant world exchanging plain Api.send payloads must
   see the same deliveries, in the same order and at the same simulated
   times, under a 4-shard Hash map as under one shard. *)
let test_sends_same_at_any_shards () =
  let stream shard_map =
    let w =
      Bp_harness.Runner.fresh_world ~seed:4300L ~n_participants:4 ?shard_map ()
    in
    let engine = w.Bp_harness.Runner.engine and dep = w.Bp_harness.Runner.dep in
    let events = ref [] in
    let stamp what = events := (what, Time.to_ns (Engine.now engine)) :: !events in
    for dst = 0 to 3 do
      Api.on_receive (Deployment.api dep dst) (fun ~src payload ->
          stamp (Printf.sprintf "%d<-%d %s" dst src payload))
    done;
    for src = 0 to 3 do
      for dst = 0 to 3 do
        if src <> dst then
          for i = 1 to 2 do
            let payload = Printf.sprintf "m%d-%d-%d" src dst i in
            Api.send (Deployment.api dep src) ~dest:dst payload ~on_done:(fun () ->
                stamp ("sent " ^ payload))
          done
      done
    done;
    Engine.run ~until:(Time.of_sec 5.0) engine;
    List.rev !events
  in
  let one = stream None in
  Alcotest.(check int) "every send committed and delivered once" (2 * 12 * 2)
    (List.length one);
  Alcotest.(check (list (pair string int)))
    "4-shard Hash world: same stream, same times" one
    (stream (Some (Shard.make ~policy:Shard.Hash ~shards:4 ())))

(* --- the shard sweep is bit-identical at any --jobs --- *)

let registered id =
  match Bp_harness.Experiments.find id with
  | Some e -> e
  | None -> Alcotest.failf "experiment %s not registered" id

let test_shard_sweep_jobs_deterministic () =
  let render_all jobs =
    String.concat ""
      (List.map Bp_harness.Report.render
         (Bp_harness.Experiments.run ~jobs (registered "ablation-shard")
            ~scale:0.01))
  in
  Alcotest.(check string) "jobs 1 == jobs 2, byte-identical" (render_all 1)
    (render_all 2)

let suite =
  [
    ( "shard",
      let tc name f = Alcotest.test_case name `Quick f in
      [
        tc "map basics" test_map_basics;
        QCheck_alcotest.to_alcotest key_for_roundtrip;
        tc "cross-shard commit atomic" test_cross_shard_commit;
        tc "cross-shard abort atomic" test_cross_shard_abort;
        tc "coordinator's NO aborts everywhere" test_coordinator_no_aborts;
        tc "shard unit WAL replays exactly" test_wal_replay;
        tc "forged Xs_decide is rejected" test_forged_decide_rejected;
        tc "forged Decide after an abort never applies" test_forged_decide_after_abort;
        tc "forged abort from an uninvolved shard" test_forged_abort_from_uninvolved_shard;
        tc "forged Prepare then abort, before the delivered Prepare"
          test_forged_prepare_then_abort_early;
        tc "forged Prepare then abort, after the delivered Prepare"
          test_forged_prepare_then_abort_late;
        tc "forged Prepare then commit after the coordinator's NO"
          test_forged_prepare_then_commit;
        tc "decide for a fabricated txid is rejected" test_fabricated_decide_rejected;
        tc "forged YES after a NO never commits" test_forged_yes_after_no;
        tc "participant decide needs its coordinator's; one prepare"
          test_participant_decide_needs_coordinator;
        tc "a participant prepares only the delivered ops"
          test_participant_prepares_delivered_ops;
        tc "malformed steps are rejected" test_malformed_steps_rejected;
        tc "sequential cross-shard transactions" test_sequential_transactions;
        tc "evidence rules record by record" test_evidence_rules;
        tc "a YES counts once per prepared shard" test_yes_counts_once_per_prepared_shard;
        tc "an abort keeps the owed YES" test_abort_keeps_owed_yes;
        tc "Prepare and NO sends go to the inner app" test_inputs_go_to_the_inner_app;
        tc "abort with every Prepare send rejected" test_abort_without_prepare_sends;
        tc "a unit's role comes from delivered evidence" test_role_from_delivered_evidence;
        tc "digest covers the evidence" test_digest_covers_evidence;
        tc "digest ignores txid order" test_digest_ignores_txid_order;
        tc "single-shard multi-op rejected whole" test_single_shard_multi_op_rejected_whole;
        tc "a NO among three drops every slice" test_no_among_three_drops_every_slice;
        tc "forged applied-ack is rejected" test_forged_applied_rejected;
        tc "YES to a non-coordinator is rejected" test_yes_to_a_non_coordinator_rejected;
        tc "decision to an unprepared shard is rejected"
          test_decision_to_an_unprepared_shard_rejected;
        tc "cross-shard commit under a Hash map" test_cross_shard_commit_hash_map;
        QCheck_alcotest.to_alcotest atomic_deterministic;
        tc "runner shard/batch knobs" test_runner_knobs;
        tc "table2 golden at any shards" test_sends_same_at_any_shards;
        tc "shard sweep bit-identical across jobs"
          test_shard_sweep_jobs_deterministic;
      ] );
  ]
