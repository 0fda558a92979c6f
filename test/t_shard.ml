(* Tests for the keyspace shard map and the cross-shard BFT two-phase
   commit: routing properties of hash/range maps, atomicity and
   determinism of cross-shard transactions on adversary-free schedules
   (qcheck), the abort downgrade when a participant shard rejects its
   prepare, exact WAL replay of a shard unit, Runner's rejection of
   invalid explicit batch-cut arguments, and that a sharded world leaves
   the Api.send stream untouched. *)

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

let make_world ?policy ?(seed = 77L) ~shards () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper () in
  let map = Shard.make ?policy ~shards () in
  let dep =
    Deployment.create ~network:net ~n_participants:shards ~fi:1
      ~app:(module Recorder)
      ~shard_map:map ()
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

(* --- recovery: a shard unit's WAL replays exactly --- *)

(* Each lead node's WAL holds the 2PC steps of a committed cross-shard
   transaction, an aborted one and a single-shard multi-op one. Replayed
   into a fresh Shard.instance it reproduces the live app state with
   nothing left staged; a plain App.make copy takes the steps for user
   commits and ends elsewhere, so the replay needs the wrapper. *)
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
    let plain = App.make (module Recorder) ~participant:p ~n_participants:4 in
    ignore (Unit_node.replay ~image ~app:plain);
    Alcotest.(check bool)
      (Printf.sprintf "participant %d: plain replay differs" p)
      false
      (String.equal (App.digest plain) (App.digest app))
  done

(* A known Lemma 3 hole, pinned as it stands (ROADMAP item 2): the
   unit verifier accepts every [Xs_decide], so one byzantine node of
   shard 0 can order a COMMIT for a transaction that aborts. The
   transaction is [test_cross_shard_abort]'s; at 10 ms node (0,1)
   offers a forged decide for its txid. The 2PC still reports the
   abort, yet every node of shard 0 applies the staged op. The fix for
   item 2 flips this one assertion to (1, 0, 0). *)
let test_forged_decide_known_hole () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "op-ok"); ("b1", "poison-op") ];
  let forged = Shard.xs_payload (Shard.Xs_decide { txid = "x0"; commit = true }) in
  ignore
    (Engine.schedule_at w.engine (Time.of_ms 10.0) (fun () ->
         Unit_node.submit_record (Deployment.node w.dep 0 1) (Record.Commit forged)
           ~on_result:ignore));
  run w;
  let applied node = contains ~sub:"op-ok" (App.describe (Unit_node.app node)) in
  let shard0 = Array.to_list (Deployment.nodes_of w.dep 0) in
  Alcotest.(check (triple int int int))
    "ROADMAP item 2: the txn aborts, yet all 4 shard-0 nodes applied op-ok" (1, 0, 4)
    (!aborted, !done_count, List.length (List.filter applied shard0))

(* The same hole through the wire (ROADMAP item 2). Shard 2's NO vote
   aborts the transaction; as the coordinator's abort decide executes,
   participant 0 also sends a COMMIT [Decide] message to shard 1. The
   Comm record commits, since Recorder (like App.Null) accepts every
   one, so shard 1 receives a genuine transmission from the coordinator
   and its honest router commits the decide, which applies the staged
   op. A participant rule that asks for the coordinator's Decide
   transmission cannot reject this one: only a coordinator whose
   committed records must owe each transmission can. Item 2 flips the
   one labelled assertion to (1, 0, []). *)
let test_forged_decide_transmission_known_hole () =
  let w = make_world ~policy:range4 ~shards:4 () in
  let router = Deployment.shard_router w.dep in
  let done_count = ref 0 and aborted = ref 0 in
  let api0 = Deployment.api w.dep 0 in
  let abort = Shard.xs_payload (Shard.Xs_decide { txid = "x0"; commit = false }) in
  (* Shard.msg's Decide {txid = "x0"; commit = true}, as the router
     encodes it. *)
  let forged =
    "__xsm:"
    ^ Bp_codec.Wire.encode (fun e ->
          Bp_codec.Wire.u8 e 2;
          Bp_codec.Wire.string e "x0";
          Bp_codec.Wire.bool e true)
  in
  Api.on_commit api0 (fun payload ->
      if String.equal payload abort then Api.send api0 ~dest:1 forged ~on_done:ignore);
  Shard.submit router
    ~on_aborted:(fun () -> incr aborted)
    ~on_done:(fun () -> incr done_count)
    [ ("a1", "op-a"); ("b1", "op-b"); ("c1", "poison-op") ];
  run w;
  let shard1 = List.filter (fun s -> s <> "") (String.split_on_char ';' (applied_at w 1)) in
  Alcotest.(check bool) "shard 1 replicas agree" true (Deployment.app_digests_agree w.dep 1);
  Alcotest.(check (triple int int (list string)))
    "ROADMAP item 2: the txn aborts, yet shard 1 applied op-b" (1, 0, [ "op-b" ])
    (!aborted, !done_count, shard1)

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
        tc "shard unit WAL replays exactly" test_wal_replay;
        tc "forged Xs_decide commits (known hole, item 2)" test_forged_decide_known_hole;
        tc "forged Decide transmission applies (known hole, item 2)"
          test_forged_decide_transmission_known_hole;
        QCheck_alcotest.to_alcotest atomic_deterministic;
        tc "runner shard/batch knobs" test_runner_knobs;
        tc "table2 golden at any shards" test_sends_same_at_any_shards;
        tc "shard sweep bit-identical across jobs"
          test_shard_sweep_jobs_deterministic;
      ] );
  ]
