open Bp_sim
open Blockplane

let ms = Time.of_ms

type world = {
  engine : Engine.t;
  net : Network.t;
  dep : Deployment.t;
}

let make_world ?(fi = 1) ?(fg = 0) ?faults ?(seed = 51L)
    ?(app = (module App.Null : App.S)) ?(n_participants = 4) () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper ?faults () in
  let dep = Deployment.create ~network:net ~n_participants ~fi ~fg ~app () in
  { engine; net; dep }

let run w t = Engine.run ~until:t w.engine

let test_record_codec_roundtrip () =
  let records =
    [
      Record.Commit "state change";
      Record.Comm { Record.dest = 2; comm_seq = 5; payload = "msg" };
      Record.Recv
        {
          Record.src = 1;
          tdest = 0;
          tcomm_seq = 3;
          log_pos = 17;
          tpayload = "payload";
          proofs = [ ("u1/n1.0", "sig") ];
          geo_proofs = [ (2, [ ("u2/n2.0", "gsig") ]) ];
        };
      Record.Mirrored { owner = 0; opos = 9; ovalue = "entry" };
    ]
  in
  List.iter
    (fun r ->
      match Record.decode (Record.encode r) with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (r = r')
      | Error e -> Alcotest.fail e)
    records

let test_log_commit_roundtrip () =
  let w = make_world () in
  let api = Deployment.api w.dep 0 in
  let committed = ref 0 in
  Api.log_commit api "event-1" ~on_done:(fun () -> incr committed);
  Api.log_commit api "event-2" ~on_done:(fun () -> incr committed);
  run w (Time.of_sec 2.0);
  Alcotest.(check int) "both committed" 2 !committed;
  Alcotest.(check bool) "unit logs agree" true (Deployment.logs_agree w.dep 0);
  Alcotest.(check bool) "app replicas agree" true (Deployment.app_digests_agree w.dep 0);
  (* Both records are readable. *)
  match (Api.read api 0, Api.read api 1) with
  | Some (Record.Commit _), Some (Record.Commit _) -> ()
  | _ -> Alcotest.fail "expected two commit records in the log"

let test_send_receive_end_to_end () =
  let w = make_world () in
  let api0 = Deployment.api w.dep 0 in
  let api1 = Deployment.api w.dep 1 in
  let got = ref [] in
  Api.on_receive api1 (fun ~src payload -> got := (src, payload) :: !got);
  Api.send api0 ~dest:1 "hello from C" ~on_done:ignore;
  run w (Time.of_sec 2.0);
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello from C") ] !got;
  Alcotest.(check bool) "destination logs agree" true (Deployment.logs_agree w.dep 1)

let test_send_receive_latency_shape () =
  (* Fig. 6 shape: one-way C->O delivery = half the 19 ms RTT plus two
     local commits and a signature round — roughly 11-15 ms. *)
  let w = make_world () in
  let api0 = Deployment.api w.dep Topology.dc_california in
  let api1 = Deployment.api w.dep Topology.dc_oregon in
  let arrival = ref Time.zero in
  Api.on_receive api1 (fun ~src:_ _ -> arrival := Engine.now w.engine);
  let started = Engine.now w.engine in
  Api.send api0 ~dest:Topology.dc_oregon "timed" ~on_done:ignore;
  run w (Time.of_sec 2.0);
  let one_way = Time.to_ms (Time.diff !arrival started) in
  Alcotest.(check bool)
    (Printf.sprintf "one-way %.2fms in [10, 18]" one_way)
    true
    (one_way >= 10.0 && one_way <= 18.0)

let test_receive_ordering () =
  let w = make_world () in
  let api0 = Deployment.api w.dep 0 in
  let api1 = Deployment.api w.dep 1 in
  let got = ref [] in
  Api.on_receive api1 (fun ~src:_ payload -> got := payload :: !got);
  for i = 1 to 10 do
    Api.send api0 ~dest:1 (Printf.sprintf "m%d" i) ~on_done:ignore
  done;
  run w (Time.of_sec 5.0);
  Alcotest.(check (list string)) "in order"
    (List.init 10 (fun i -> Printf.sprintf "m%d" (i + 1)))
    (List.rev !got)

let test_receive_exactly_once_under_faults () =
  let faults = { Network.no_faults with drop = 0.05; duplicate = 0.1 } in
  let w = make_world ~faults ~seed:52L () in
  let api0 = Deployment.api w.dep 0 in
  let api1 = Deployment.api w.dep 1 in
  let got = ref [] in
  Api.on_receive api1 (fun ~src:_ payload -> got := payload :: !got);
  for i = 1 to 8 do
    Api.send api0 ~dest:1 (Printf.sprintf "m%d" i) ~on_done:ignore
  done;
  run w (Time.of_sec 20.0);
  Alcotest.(check (list string)) "exactly once, in order (Lemma 2)"
    (List.init 8 (fun i -> Printf.sprintf "m%d" (i + 1)))
    (List.rev !got)

let test_pull_receive () =
  let w = make_world () in
  let api0 = Deployment.api w.dep 0 in
  let api2 = Deployment.api w.dep 2 in
  Api.send api0 ~dest:2 "polled" ~on_done:ignore;
  run w (Time.of_sec 2.0);
  Alcotest.(check (option string)) "poll returns message" (Some "polled")
    (Api.receive api2 ~src:0);
  Alcotest.(check (option string)) "buffer drained" None (Api.receive api2 ~src:0)

let test_bidirectional_traffic () =
  let w = make_world () in
  let api0 = Deployment.api w.dep 0 in
  let api1 = Deployment.api w.dep 1 in
  let got0 = ref [] and got1 = ref [] in
  Api.on_receive api0 (fun ~src payload -> got0 := (src, payload) :: !got0);
  Api.on_receive api1 (fun ~src payload ->
      got1 := (src, payload) :: !got1;
      Api.send api1 ~dest:0 ("re:" ^ payload) ~on_done:ignore);
  Api.send api0 ~dest:1 "ping" ~on_done:ignore;
  run w (Time.of_sec 3.0);
  Alcotest.(check (list (pair int string))) "request" [ (0, "ping") ] !got1;
  Alcotest.(check (list (pair int string))) "response" [ (1, "re:ping") ] !got0

let test_all_pairs_traffic () =
  let w = make_world () in
  let received = Array.make 4 0 in
  for p = 0 to 3 do
    Api.on_receive (Deployment.api w.dep p) (fun ~src:_ _ ->
        received.(p) <- received.(p) + 1)
  done;
  for src = 0 to 3 do
    for dst = 0 to 3 do
      if src <> dst then
        Api.send (Deployment.api w.dep src) ~dest:dst "x" ~on_done:ignore
    done
  done;
  run w (Time.of_sec 5.0);
  Array.iteri
    (fun p n -> Alcotest.(check int) (Printf.sprintf "participant %d" p) 3 n)
    received

let test_forged_transmission_rejected () =
  (* A byzantine node at the destination proposes a received record that
     was never actually sent (Algorithm 1's attack: incrementing the
     counter without a message). The verification routine must reject it. *)
  let w = make_world () in
  let api1 = Deployment.api w.dep 1 in
  let forged =
    Record.Recv
      {
        Record.src = 0;
        tdest = 1;
        tcomm_seq = 0;
        log_pos = 0;
        tpayload = "forged!";
        proofs = [];
        geo_proofs = [];
      }
  in
  let rejected = ref false and committed = ref false in
  Api.submit_record api1 forged
    ~on_done:(fun () -> committed := true)
    ~on_rejected:(fun () -> rejected := true);
  run w (Time.of_sec 5.0);
  Alcotest.(check bool) "rejected" true !rejected;
  Alcotest.(check bool) "not committed" false !committed;
  Alcotest.(check int) "nothing received" (-1)
    (Unit_node.last_received (Deployment.node w.dep 1 0) ~src:0)

let test_single_byzantine_signature_insufficient () =
  (* One byzantine source node signs a fabricated transmission; fi+1 = 2
     valid signatures are required, so the destination must reject it. *)
  let w = make_world () in
  let byz = Deployment.node w.dep 0 3 in
  Unit_node.set_byzantine_sign_anything byz true;
  let fake =
    {
      Record.src = 0;
      tdest = 1;
      tcomm_seq = 0;
      log_pos = 0;
      tpayload = "fabricated";
      proofs = [];
      geo_proofs = [];
    }
  in
  let proofs =
    match Unit_node.sign_transmission byz fake with
    | Some pair -> [ pair ]
    | None -> Alcotest.fail "byzantine node should sign anything"
  in
  let fake = { fake with Record.proofs } in
  (* Deliver it straight to a destination node, bypassing honest daemons. *)
  Bp_net.Transport.send (Unit_node.transport byz)
    ~dst:(Deployment.unit_addrs w.dep 1).(0)
    ~tag:(Proto.aux_tag 1)
    (Proto.encode (Proto.Transmit { transmission = fake }));
  run w (Time.of_sec 5.0);
  Alcotest.(check int) "never delivered" (-1)
    (Unit_node.last_received (Deployment.node w.dep 1 0) ~src:0);
  let api1 = Deployment.api w.dep 1 in
  Alcotest.(check (option string)) "no reception" None (Api.receive api1 ~src:0)

let test_app_verification_blocks_commit () =
  (* An app whose verification routine refuses payloads starting with
     "bad": f+1 replicas pre-reject, the API surfaces the rejection, and
     no replica applies the record (Lemma 3). *)
  let module Picky = struct
    type state = string list ref

    let create ~participant:_ ~n_participants:_ = ref []

    let verify _ record =
      match record with
      | Record.Commit payload -> not (String.length payload >= 3 && String.sub payload 0 3 = "bad")
      | _ -> true

    let apply state ~hash:_ record =
      match record with
      | Record.Commit payload -> state := payload :: !state
      | _ -> ()

    let digest state = Bp_crypto.Sha256.digest (String.concat ";" !state)
    let describe state = String.concat ";" !state
  end in
  let w = make_world ~app:(module Picky) () in
  let api = Deployment.api w.dep 0 in
  let ok = ref false and rejected = ref false and bad_done = ref false in
  Api.log_commit api "good-event" ~on_done:(fun () -> ok := true);
  Api.log_commit api "bad-event"
    ~on_rejected:(fun () -> rejected := true)
    ~on_done:(fun () -> bad_done := true);
  run w (Time.of_sec 5.0);
  Alcotest.(check bool) "good committed" true !ok;
  Alcotest.(check bool) "bad rejected" true !rejected;
  Alcotest.(check bool) "bad never committed" false !bad_done;
  Alcotest.(check bool) "replicas agree" true (Deployment.app_digests_agree w.dep 0)

(* ROADMAP item 20, first defect: [Api.send] numbers [comm_seq] at
   submission, so a send its own unit rejects leaves a hole in that
   destination's sequence. Here "bad" takes number 0 and is rejected;
   "good" commits at the source with number 1, and participant 1 waits
   for number 0 forever. The rejection itself never reaches the sender
   either (the second defect). The fix for item 20 flips both labelled
   assertions. *)
let test_rejected_send_blocks_channel_known_hole () =
  let module Refuse_bad = struct
    type state = unit

    let create ~participant:_ ~n_participants:_ = ()

    let verify () record =
      match record with
      | Record.Comm { Record.payload = "bad"; _ } -> false
      | _ -> true

    let apply () ~hash:_ _ = ()
    let digest () = ""
    let describe () = ""
  end in
  let w = make_world ~n_participants:2 ~app:(module Refuse_bad) () in
  let api0 = Deployment.api w.dep 0 and api1 = Deployment.api w.dep 1 in
  let got = ref [] and bad_rejected = ref false and good_done = ref false in
  Api.on_receive api1 (fun ~src:_ payload -> got := payload :: !got);
  Api.send api0 ~dest:1 "bad"
    ~on_rejected:(fun () -> bad_rejected := true)
    ~on_done:ignore;
  Api.send api0 ~dest:1 "good" ~on_done:(fun () -> good_done := true);
  run w (Time.of_sec 10.0);
  Alcotest.(check bool) "good commits at the source" true !good_done;
  Alcotest.(check (pair (list string) int))
    "ROADMAP item 20: good is never delivered (comm_seq 0 is a hole)" ([], -1)
    (!got, Unit_node.last_received (Deployment.node w.dep 1 0) ~src:0);
  Alcotest.(check bool) "ROADMAP item 20: bad's rejection never reaches the sender"
    false !bad_rejected

let test_malicious_daemon_reserve_promotion () =
  let w = make_world () in
  let api0 = Deployment.api w.dep 0 in
  let api3 = Deployment.api w.dep 3 in
  (* The active daemon 0->3 goes silent (maliciously delaying messages). *)
  Comm_daemon.set_enabled (Deployment.daemon w.dep ~src:0 ~dest:3) false;
  let got = ref [] in
  Api.on_receive api3 (fun ~src:_ payload -> got := payload :: !got);
  Api.send api0 ~dest:3 "delayed" ~on_done:ignore;
  (* Reserves probe every 500 ms and need 3 consecutive gap sightings. *)
  run w (Time.of_sec 15.0);
  Alcotest.(check (list string)) "reserve delivered it" [ "delayed" ] !got;
  let reserves = Deployment.reserves w.dep ~src:0 ~dest:3 in
  Alcotest.(check bool) "some reserve promoted" true
    (List.exists Reserve.promoted reserves)

let test_no_spurious_promotion () =
  let w = make_world () in
  let api0 = Deployment.api w.dep 0 in
  let api1 = Deployment.api w.dep 1 in
  Api.on_receive api1 (fun ~src:_ _ -> ());
  for i = 1 to 5 do
    Api.send api0 ~dest:1 (string_of_int i) ~on_done:ignore
  done;
  run w (Time.of_sec 10.0);
  let reserves = Deployment.reserves w.dep ~src:0 ~dest:1 in
  Alcotest.(check bool) "healthy daemon, no promotion" false
    (List.exists Reserve.promoted reserves)

let test_read_strategies () =
  let w = make_world () in
  let api = Deployment.api w.dep 0 in
  let done_ = ref false in
  Api.log_commit api "readable" ~on_done:(fun () -> done_ := true);
  run w (Time.of_sec 1.0);
  Alcotest.(check bool) "committed" true !done_;
  (* read-1 returns the entry. *)
  (match Api.read api 0 with
  | Some (Record.Commit "readable") -> ()
  | _ -> Alcotest.fail "read-1 failed");
  (* A byzantine lead node rewrites its local copy: read-1 now lies, but
     the 2f+1 quorum read returns the truth. *)
  Bp_storage.Log_store.tamper (Unit_node.log (Deployment.node w.dep 0 0)) 0
    (Record.encode (Record.Commit "LIE"));
  (match Api.read api 0 with
  | Some (Record.Commit "LIE") -> ()
  | _ -> Alcotest.fail "tamper should affect read-1");
  let quorum_result = ref None in
  Api.read_quorum api 0 ~on_result:(fun r -> quorum_result := r);
  run w (Time.of_sec 2.0);
  (match !quorum_result with
  | Some (Record.Commit "readable") -> ()
  | _ -> Alcotest.fail "quorum read failed to mask the liar");
  (* Linearizable read commits a marker first. *)
  let lin_result = ref None in
  Api.read_linearizable api 0 ~on_result:(fun r -> lin_result := r);
  run w (Time.of_sec 4.0);
  match !lin_result with
  | Some (Record.Commit "readable") -> ()
  | _ -> Alcotest.fail "linearizable read failed"

let test_geo_commit_latency () =
  (* Fig. 5 shape: with fg=1, committing at California costs local commit
     plus the 19 ms RTT to Oregon plus the mirror's local commit:
     ~21-26 ms. *)
  let w = make_world ~fg:1 () in
  let api = Deployment.api w.dep Topology.dc_california in
  let finished = ref Time.zero in
  let started = Engine.now w.engine in
  Api.log_commit api "geo" ~on_done:(fun () -> finished := Engine.now w.engine);
  run w (Time.of_sec 3.0);
  let lat = Time.to_ms (Time.diff !finished started) in
  Alcotest.(check bool)
    (Printf.sprintf "fg=1 latency %.1fms in [20, 30]" lat)
    true
    (lat >= 20.0 && lat <= 30.0);
  Alcotest.(check bool) "entry proved" true
    (Geo.is_proved (Deployment.geo w.dep Topology.dc_california) ~pos:0)

let test_geo_failover_reroutes () =
  (* Fig. 8(a) shape: the closest mirror (Oregon) dies; California's geo
     commits must reroute to the next mirror (Virginia) and keep going,
     at higher latency. *)
  let w = make_world ~fg:1 () in
  let api = Deployment.api w.dep Topology.dc_california in
  let lat = ref [] in
  let commit_one () =
    let s = Engine.now w.engine in
    Api.log_commit api "x" ~on_done:(fun () ->
        lat := Time.to_ms (Time.diff (Engine.now w.engine) s) :: !lat)
  in
  commit_one ();
  run w (Time.of_sec 1.0);
  Network.crash_dc w.net Topology.dc_oregon;
  run w (Time.of_sec 3.0);
  commit_one ();
  run w (Time.of_sec 8.0);
  match List.rev !lat with
  | [ before; after ] ->
      Alcotest.(check bool)
        (Printf.sprintf "before %.1fms ~20-30" before)
        true
        (before >= 20.0 && before <= 30.0);
      Alcotest.(check bool)
        (Printf.sprintf "after %.1fms >= 60 (Virginia)" after)
        true
        (after >= 60.0 && after <= 90.0)
  | l -> Alcotest.failf "expected 2 commits, got %d" (List.length l)

(* Mirror tables key an entry by one int: distinct for every in-range
   (owner, pos), and -1, which names no entry, outside the range (a
   byzantine request's values). *)
let test_mirror_key () =
  let key owner pos = Proto.mirror_key ~owner ~pos in
  let keys =
    [ key 0 0; key 1 0; key 0 1; key 3 12345; key 65535 ((1 lsl 46) - 1) ]
  in
  Alcotest.(check int) "distinct" (List.length keys)
    (List.length (List.sort_uniq Int.compare keys));
  Alcotest.(check bool) "in range" true (List.for_all (fun k -> k >= 0) keys);
  List.iter
    (fun (owner, pos) -> Alcotest.(check int) "out of range" (-1) (key owner pos))
    [ (-1, 0); (1 lsl 16, 0); (0, -1); (0, 1 lsl 46) ]

let test_geo_send_carries_proofs () =
  let w = make_world ~fg:1 () in
  let api0 = Deployment.api w.dep 0 in
  let api1 = Deployment.api w.dep 1 in
  let got = ref [] in
  Api.on_receive api1 (fun ~src:_ payload -> got := payload :: !got);
  Api.send api0 ~dest:1 "geo message" ~on_done:ignore;
  run w (Time.of_sec 5.0);
  Alcotest.(check (list string)) "delivered with geo proofs" [ "geo message" ] !got;
  (* The received record in participant 1's log carries the fg bundles. *)
  let log1 = Unit_node.log (Deployment.node w.dep 1 0) in
  let found = ref false in
  Bp_storage.Log_store.iter_from log1 0 (fun entry ->
      match Record.decode entry.Bp_storage.Log_store.payload with
      | Ok (Record.Recv tr) ->
          if List.length tr.Record.geo_proofs >= 1 then found := true
      | _ -> ());
  Alcotest.(check bool) "geo proofs present in log" true !found

(* A known Lemma 3 hole, pinned as it stands (ROADMAP item 3): the unit
   verifier accepts every [Mirrored] record, and executing one replaces
   the mirror index entry. With fg = 1 only unit 1 mirrors participant
   0's entry 0; then every mirror unit commits a forged copy of entries
   0-3 that no owner node signed. Unit 1's honest digest is overwritten
   and units 2-3, which held nothing, now hold the forgery. The fix for
   item 3 flips this one assertion to the digests read before the
   forgery. *)
let test_forged_mirror_known_hole () =
  let w = make_world ~fg:1 ~seed:61L () in
  Api.log_commit (Deployment.api w.dep 0) "real-value" ~on_done:ignore;
  run w (Time.of_sec 3.0);
  let entry0 u = Unit_node.mirror_digest (Deployment.node w.dep u 0) ~owner:0 ~pos:0 in
  let honest = List.map entry0 [ 1; 2; 3 ] in
  Alcotest.(check (list bool)) "before the forgery only unit 1 mirrors entry 0"
    [ true; false; false ] (List.map Option.is_some honest);
  for u = 1 to 3 do
    for opos = 0 to 3 do
      Api.submit_record (Deployment.api w.dep u)
        (Record.Mirrored { owner = 0; opos; ovalue = "forged" })
        ~on_done:ignore ~on_rejected:ignore
    done
  done;
  run w (Time.of_sec 6.0);
  let forged = Some (Bp_crypto.Sha256.digest "forged") in
  Alcotest.(check (list (option string)))
    "ROADMAP item 3: units 1-3 hold the forged digest of entry 0" [ forged; forged; forged ]
    (List.map entry0 [ 1; 2; 3 ])

(* A signature collector counts only its own unit's nodes, as the
   bundle's checker does. Here node (0,1) of the owner's own unit answers
   each entry it executes with a stream of mirror-sign responses, signed
   by itself, at unit 1's mirror agent. Were the agent to count one, its
   bundle would carry a foreign signature, fall short at the owner and
   wait for the 500 ms proof retry. *)
let test_mirror_agent_counts_own_unit () =
  List.iter
    (fun seed ->
      let w = make_world ~fg:1 ~seed () in
      let spammer = Deployment.node w.dep 0 1 in
      let identity = Unit_node.identity spammer in
      let agent = (Deployment.unit_addrs w.dep 1).(0) in
      Unit_node.add_executed_hook spammer (fun ~pos record ->
          match record with
          | Record.Mirrored _ -> ()
          | _ ->
              let digest = Bp_crypto.Sha256.digest (Record.encode record) in
              let signature =
                Bp_crypto.Verify_cache.sign (Unit_node.vcache spammer)
                  ~signer:identity
                  (Proto.mirror_statement ~owner:0 ~pos ~digest)
              in
              let msg =
                Proto.Mirror_sign_response { owner = 0; pos; identity; signature }
              in
              for i = 0 to 99 do
                ignore
                  (Engine.schedule w.engine ~after:(ms (0.1 *. float_of_int i)) (fun () ->
                       Unit_node.send_aux spammer ~dst:agent msg))
              done);
      let finished = ref None in
      Api.log_commit (Deployment.api w.dep 0) "geo" ~on_done:(fun () ->
          finished := Some (Time.to_ms (Engine.now w.engine)));
      run w (Time.of_sec 3.0);
      match !finished with
      | Some lat ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %Ld: fg=1 commit at %.1f ms, under 100" seed lat)
            true (lat < 100.0)
      | None -> Alcotest.failf "seed %Ld: the commit never finished" seed)
    [ 61L; 62L; 63L ]

(* The daemon side of the same rule: node (1,1) of the destination unit
   signs the first transmission 0 -> 1, whose payload it can predict,
   and streams that signature at unit 0's daemon for the first 200 ms;
   the send starts 50 ms in. Were the daemon to count it, the ready
   bundle would fail the receiver's check, and a ready bundle takes no
   further honest signature. *)
let test_comm_daemon_counts_own_unit () =
  let w = make_world () in
  let spammer = Deployment.node w.dep 1 1 in
  let identity = Unit_node.identity spammer in
  let payload = "predictable" in
  let tr =
    {
      Record.src = 0;
      tdest = 1;
      tcomm_seq = 0;
      log_pos = 0;
      tpayload = payload;
      proofs = [];
      geo_proofs = [];
    }
  in
  let signature =
    Bp_crypto.Verify_cache.sign (Unit_node.vcache spammer) ~signer:identity
      (Record.transmission_statement ~digest:Bp_crypto.Sha256.digest tr)
  in
  let msg = Proto.Sign_response { dest = 1; comm_seq = 0; identity; signature } in
  let daemon_node = (Deployment.unit_addrs w.dep 0).(0) in
  for i = 0 to 1999 do
    ignore
      (Engine.schedule w.engine ~after:(ms (0.1 *. float_of_int i)) (fun () ->
           Unit_node.send_aux spammer ~dst:daemon_node msg))
  done;
  let delivered = ref None in
  Api.on_receive (Deployment.api w.dep 1) (fun ~src:_ _ ->
      delivered := Some (Time.to_ms (Engine.now w.engine)));
  ignore
    (Engine.schedule w.engine ~after:(ms 50.0) (fun () ->
         Api.send (Deployment.api w.dep 0) ~dest:1 payload ~on_done:ignore));
  run w (Time.of_sec 5.0);
  match !delivered with
  | Some at ->
      Alcotest.(check bool)
        (Printf.sprintf "delivered at %.1f ms, under 200" at)
        true (at < 200.0)
  | None -> Alcotest.fail "never delivered"

let test_lemma1_agreement_under_byzantine_node () =
  (* One byzantine node per unit (silent in commit phase) must not
     prevent progress or agreement. *)
  let w = make_world () in
  for p = 0 to 3 do
    Bp_pbft.Replica.suppress_commit_votes
      (Unit_node.replica (Deployment.node w.dep p 3))
      true
  done;
  let api0 = Deployment.api w.dep 0 in
  let api1 = Deployment.api w.dep 1 in
  let got = ref 0 in
  Api.on_receive api1 (fun ~src:_ _ -> incr got);
  let committed = ref 0 in
  for _ = 1 to 3 do
    Api.log_commit api0 "c" ~on_done:(fun () -> incr committed);
    Api.send api0 ~dest:1 "m" ~on_done:ignore
  done;
  run w (Time.of_sec 10.0);
  Alcotest.(check int) "commits proceed" 3 !committed;
  Alcotest.(check int) "messages delivered" 3 !got;
  Alcotest.(check bool) "source unit agreement" true (Deployment.logs_agree w.dep 0);
  Alcotest.(check bool) "destination unit agreement" true (Deployment.logs_agree w.dep 1)

(* Randomized whole-system property: arbitrary interleaved commit/send
   workloads across all participants, under mild network faults and one
   silent byzantine node per unit, must always end with (a) every send
   delivered exactly once in per-pair order, (b) all units' logs in
   agreement, (c) all app replicas in agreement. *)
let test_randomized_workload_property () =
  for seed = 1 to 6 do
    let faults = { Network.no_faults with drop = 0.03; duplicate = 0.05 } in
    let w = make_world ~faults ~seed:(Int64.of_int (9000 + seed)) () in
    let rng = Bp_util.Rng.create (Int64.of_int (100 + seed)) in
    (* One quiet byzantine replica per unit. *)
    for p = 0 to 3 do
      Bp_pbft.Replica.suppress_commit_votes
        (Unit_node.replica (Deployment.node w.dep p 3))
        true
    done;
    let expected = Array.make_matrix 4 4 [] in
    let received = Array.make_matrix 4 4 [] in
    (* One receive handler per destination, bucketing by source. *)
    for dst = 0 to 3 do
      Api.on_receive (Deployment.api w.dep dst) (fun ~src payload ->
          received.(src).(dst) <- payload :: received.(src).(dst))
    done;
    let op_count = 25 in
    for i = 1 to op_count do
      let src = Bp_util.Rng.int rng 4 in
      if Bp_util.Rng.bool rng then
        Api.log_commit (Deployment.api w.dep src)
          (Printf.sprintf "c-%d-%d" src i)
          ~on_done:ignore
      else begin
        let dst = (src + 1 + Bp_util.Rng.int rng 3) mod 4 in
        let payload = Printf.sprintf "m-%d-%d-%d" src dst i in
        expected.(src).(dst) <- payload :: expected.(src).(dst);
        Api.send (Deployment.api w.dep src) ~dest:dst payload ~on_done:ignore
      end
    done;
    run w (Time.of_sec 60.0);
    for src = 0 to 3 do
      for dst = 0 to 3 do
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d: %d->%d exactly once in order" seed src dst)
          (List.rev expected.(src).(dst))
          (List.rev received.(src).(dst))
      done
    done;
    for p = 0 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: unit %d log agreement" seed p)
        true
        (Deployment.logs_agree w.dep p);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: unit %d app agreement" seed p)
        true
        (Deployment.app_digests_agree w.dep p)
    done
  done

(* A 4-node unit at depth 8 and [commit_range lo hi], which commits
   payloads [lo, hi) of [n] bulk payloads of [op_bytes] each and runs
   until they have completed. *)
let bulk_unit ~n ~op_bytes =
  let w =
    Bp_harness.Runner.fresh_world ~fi:1 ~n_participants:1 ~max_in_flight:8 ()
  in
  let api = Deployment.api w.Bp_harness.Runner.dep 0 in
  let payloads =
    Array.init n (fun i -> Bp_harness.Runner.payload ~size:op_bytes i)
  in
  let completed = ref 0 in
  let commit_range lo hi =
    for i = lo to hi - 1 do
      Api.log_commit api payloads.(i) ~on_done:(fun () -> incr completed)
    done;
    Bp_harness.Runner.drive w.Bp_harness.Runner.engine ~what:"bulk commits"
      ~finished:(fun () -> !completed = hi)
  in
  (w, commit_range)

(* Words a bulk op allocates straight into the major heap (blocks too
   big for the minor heap: payload-sized strings), in units of the op's
   own size, summed over a 4-node unit at depth 8 after a warm-up: every
   payload copy on the client, the primary, the backups and the wire.
   Measured at 11.23 op sizes per op when the bound was set; it was 14.21
   while each node kept a WAL beside its Local Log and the first replica
   to execute an op dropped the unit's shared decoding, 19.13 while every
   receiver decoded its own copy of each PBFT message, 25.37 when a
   budget was first set, and 55.46 before each node decoded an op once
   and bulk encodes were sized exactly. The simulation is deterministic,
   so the figure is too. *)
let bulk_copies_per_op ~ops ~op_bytes =
  let warm = 16 in
  let _, commit_range = bulk_unit ~n:(warm + ops) ~op_bytes in
  commit_range 0 warm;
  let before = Gc.quick_stat () in
  commit_range warm (warm + ops);
  let after = Gc.quick_stat () in
  let direct =
    after.Gc.major_words -. before.Gc.major_words
    -. (after.Gc.promoted_words -. before.Gc.promoted_words)
  in
  direct /. float_of_int ops /. (float_of_int op_bytes /. 8.0)

let test_bulk_copy_budget () =
  let copies = bulk_copies_per_op ~ops:48 ~op_bytes:50_000 in
  if copies > 12.0 then
    Alcotest.failf "bulk log_commit copies %.2f op sizes per op (budget 12)" copies

(* Bytes hashed with SHA-256 per bulk op, in units of the op's own size,
   summed over the caches of a 4-node unit's client endpoint and its
   replicas at depth 8 after a warm-up: the op string is shared by every
   one of them, and so is its digest, through the request's memo.
   Measured at 1.00 op sizes per op when the bound was set, and 5.00
   while the client and each of the four replicas hashed the op
   themselves. The simulation is deterministic, so the figure is too. *)
let bulk_sha_per_op ~ops ~op_bytes =
  let warm = 16 in
  let w, commit_range = bulk_unit ~n:(warm + ops) ~op_bytes in
  let dep = w.Bp_harness.Runner.dep in
  let caches =
    Api.vcache (Deployment.api dep 0)
    :: Array.to_list (Array.map Unit_node.vcache (Deployment.nodes_of dep 0))
  in
  let hashed () =
    List.fold_left (fun acc c -> acc + Bp_crypto.Verify_cache.sha_bytes c) 0 caches
  in
  commit_range 0 warm;
  let before = hashed () in
  commit_range warm (warm + ops);
  float_of_int (hashed () - before) /. float_of_int ops /. float_of_int op_bytes

let test_bulk_hash_budget () =
  let hashed = bulk_sha_per_op ~ops:48 ~op_bytes:50_000 in
  if hashed > 1.5 then
    Alcotest.failf "bulk log_commit hashes %.2f op sizes per op (budget 1.5)" hashed

(* What a 4-node unit keeps of its bulk ops: every node's log entry holds
   the op string the client sealed, which delivery hints share across
   the unit, so the four logs together take about one op size per op
   (1.01 when the bound was set). When each node decoded its own copy of
   every message they took 4.01. *)
let test_bulk_retention () =
  let ops = 24 and op_bytes = 50_000 in
  let w, commit_range = bulk_unit ~n:ops ~op_bytes in
  commit_range 0 ops;
  let logs =
    Array.map Unit_node.log (Deployment.nodes_of w.Bp_harness.Runner.dep 0)
  in
  Array.iter
    (fun log ->
      Alcotest.(check int) "every op logged" ops (Bp_storage.Log_store.length log))
    logs;
  let held =
    float_of_int (Obj.reachable_words (Obj.repr logs))
    /. float_of_int ops
    /. (float_of_int op_bytes /. 8.0)
  in
  if held > 1.5 then
    Alcotest.failf "four logs hold %.2f op sizes per op (budget 1.5)" held

(* A 4-node unit with the d8mf16 cut policy (depth 8, batches of at
   least 16, 0.25 ms hold) committing 1 KB records, as in the local-small
   benchmark: minor-heap words allocated per committed op after a
   warm-up, summed over the client and the four replicas. The simulation
   is deterministic, so the figure is too. *)
let d8mf16_world () =
  Bp_harness.Runner.fresh_world ~fi:1 ~n_participants:1 ~max_in_flight:8
    ~batch_min_fill:16 ~batch_hold:(ms 0.25) ()

let commit_1k w ~warm ~ops =
  let engine = w.Bp_harness.Runner.engine in
  let api = Deployment.api w.Bp_harness.Runner.dep 0 in
  let payloads =
    Array.init (warm + ops) (fun i -> Bp_harness.Runner.payload ~size:1024 i)
  in
  let completed = ref 0 in
  let commit_range lo hi =
    for i = lo to hi - 1 do
      Api.log_commit api payloads.(i) ~on_done:(fun () -> incr completed)
    done;
    Bp_harness.Runner.drive engine ~what:"1 KB commits" ~finished:(fun () ->
        !completed = hi)
  in
  commit_range 0 warm;
  let before = Gc.minor_words () in
  commit_range warm (warm + ops);
  (Gc.minor_words () -. before) /. float_of_int ops

(* Measured at 3440 words per op when the bound was set, and 3901 while
   each node kept a WAL beside its Local Log and the unit's replicas
   decoded each op up to four times. Before that: 4143 while every event
   heap move ran a write barrier and each event cost a separate timer, a
   repeat option and a [Some] on every pop and node lookup, 4910 while
   every receiver decoded its own copy of each PBFT message, and 6438
   before request keys became (client, ts) pairs, frames were built only
   on demand and the per-message encodes were sized exactly. The bound
   is 4.7% over 3440, so any of those creeping back fails here. *)
let test_small_alloc_budget () =
  let words = commit_1k (d8mf16_world ()) ~warm:64 ~ops:512 in
  if words > 3600.0 then
    Alcotest.failf "1 KB log_commit allocates %.0f minor words per op (budget 3600)"
      words

(* Four participants on Table I with fi = fg = 1, as in the geo-send
   benchmark: every one of the 12 ordered pairs sends a 200 B message
   per round with Api.send, and each round runs until all 12 are
   committed at their sources and delivered. Minor-heap words allocated
   per send over [rounds] rounds after [warm] warm-up rounds, the comm
   daemons, bundles, geo mirrors and WAN transport included. *)
let geo_send_words ~warm ~rounds =
  let w = Bp_harness.Runner.fresh_world ~fi:1 ~fg:1 ~n_participants:4 () in
  let engine = w.Bp_harness.Runner.engine and dep = w.Bp_harness.Runner.dep in
  let delivered = ref 0 and committed = ref 0 in
  for dst = 0 to 3 do
    Api.on_receive (Deployment.api dep dst) (fun ~src:_ _ -> incr delivered)
  done;
  let payloads =
    Array.init ((warm + rounds) * 12) (fun i -> Bp_harness.Runner.payload ~size:200 i)
  in
  let on_done () = incr committed in
  let round r =
    for src = 0 to 3 do
      for k = 1 to 3 do
        Api.send (Deployment.api dep src) ~dest:((src + k) mod 4)
          payloads.((r * 12) + (src * 3) + k - 1)
          ~on_done
      done
    done;
    let target = 12 * (r + 1) in
    Bp_harness.Runner.drive engine ~what:"geo sends" ~finished:(fun () ->
        !delivered = target && !committed = target)
  in
  for r = 0 to warm - 1 do
    round r
  done;
  let before = Gc.minor_words () in
  for r = warm to warm + rounds - 1 do
    round r
  done;
  (Gc.minor_words () -. before) /. float_of_int (12 * rounds)

(* Measured at 49785 words per send when the bound was set, and 56679
   while the engine allocated an event, a timer and an option per event,
   network lookups allocated per message, every daemon ack rebuilt the
   pending map and every bundle check made a hash table. The bound is
   4.4% over 49785. *)
let test_geo_alloc_budget () =
  let words = geo_send_words ~warm:2 ~rounds:16 in
  if words > 52000.0 then
    Alcotest.failf "200 B Api.send allocates %.0f minor words per send (budget 52000)"
      words

(* Nothing in a fault-free world reads frame bytes: every delivery acts
   on the sender's hint. Covers a unit's PBFT traffic; with four
   participants, the comm daemons' aux and WAN traffic; and with two
   shards (a Range map, as the shard-xs benchmark builds), the router's
   single-shard commits and a cross-shard transaction's BFT two-phase
   commit. *)
let test_fault_free_builds_no_frames () =
  let w = d8mf16_world () in
  ignore (commit_1k w ~warm:16 ~ops:64);
  Alcotest.(check int) "one unit: frames built" 0
    (Network.counters w.Bp_harness.Runner.net).Network.materialized;
  let w = Bp_harness.Runner.fresh_world ~fi:1 ~n_participants:4 () in
  let delivered = ref 0 in
  for dst = 0 to 3 do
    Api.on_receive (Deployment.api w.Bp_harness.Runner.dep dst) (fun ~src:_ _ ->
        incr delivered)
  done;
  for src = 0 to 3 do
    for k = 1 to 3 do
      Api.send (Deployment.api w.Bp_harness.Runner.dep src)
        ~dest:((src + k) mod 4) (Printf.sprintf "m%d-%d" src k) ~on_done:ignore
    done
  done;
  Bp_harness.Runner.drive w.Bp_harness.Runner.engine ~what:"geo sends"
    ~finished:(fun () -> !delivered = 12);
  Alcotest.(check int) "four participants: frames built" 0
    (Network.counters w.Bp_harness.Runner.net).Network.materialized;
  let map = Shard.make ~policy:(Shard.Range [| "s01" |]) ~shards:2 () in
  let w = Bp_harness.Runner.fresh_world ~fi:1 ~n_participants:2 ~shard_map:map () in
  let router = Deployment.shard_router w.Bp_harness.Runner.dep in
  let key shard = Shard.key_for map ~shard ~salt:shard in
  let done_ = ref 0 in
  let submit ops = Shard.submit router ~on_done:(fun () -> incr done_) ops in
  submit [ (key 0, "single-0") ];
  submit [ (key 1, "single-1") ];
  submit [ (key 0, "cross-0"); (key 1, "cross-1") ];
  Bp_harness.Runner.drive w.Bp_harness.Runner.engine ~what:"shard txns"
    ~finished:(fun () -> !done_ = 3);
  let st = Shard.stats router in
  Alcotest.(check (pair int int)) "two shards: cross-shard submitted, committed"
    (1, 1) (st.Shard.cross_shard, st.Shard.committed);
  Alcotest.(check int) "two shards: frames built" 0
    (Network.counters w.Bp_harness.Runner.net).Network.materialized

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "blockplane.record",
      [ tc "codec roundtrip" test_record_codec_roundtrip ] );
    ( "blockplane.bulk",
      [
        tc "copy budget per op" test_bulk_copy_budget;
        tc "hash budget per op" test_bulk_hash_budget;
        tc "logs share one copy of each op" test_bulk_retention;
      ] );
    ( "blockplane.small",
      [
        tc "allocation budget per op" test_small_alloc_budget;
        tc "geo allocation budget per send" test_geo_alloc_budget;
        tc "fault-free runs build no frame bytes" test_fault_free_builds_no_frames;
      ] );
    ( "blockplane.commit",
      [
        tc "log-commit roundtrip" test_log_commit_roundtrip;
        tc "app verification blocks commit" test_app_verification_blocks_commit;
        tc "rejected send blocks its channel (known hole, item 20)"
          test_rejected_send_blocks_channel_known_hole;
        tc "read strategies" test_read_strategies;
      ] );
    ( "blockplane.comm",
      [
        tc "send/receive end to end" test_send_receive_end_to_end;
        tc "latency shape (fig6)" test_send_receive_latency_shape;
        tc "receive ordering" test_receive_ordering;
        tc "exactly-once under faults (Lemma 2)" test_receive_exactly_once_under_faults;
        tc "poll receive" test_pull_receive;
        tc "bidirectional" test_bidirectional_traffic;
        tc "all pairs" test_all_pairs_traffic;
      ] );
    ( "blockplane.byzantine",
      [
        tc "forged transmission rejected" test_forged_transmission_rejected;
        tc "one byzantine signature insufficient" test_single_byzantine_signature_insufficient;
        tc "malicious daemon -> reserve promotes" test_malicious_daemon_reserve_promotion;
        tc "healthy daemon -> no promotion" test_no_spurious_promotion;
        tc "agreement with byzantine nodes (Lemma 1)" test_lemma1_agreement_under_byzantine_node;
        tc "randomized workload property" test_randomized_workload_property;
        tc "mirror agent counts only its unit" test_mirror_agent_counts_own_unit;
        tc "comm daemon counts only its unit" test_comm_daemon_counts_own_unit;
      ] );
    ( "blockplane.geo",
      [
        tc "fg=1 commit latency (fig5)" test_geo_commit_latency;
        tc "mirror failover (fig8a shape)" test_geo_failover_reroutes;
        tc "transmissions carry geo proofs" test_geo_send_carries_proofs;
        tc "mirror keys" test_mirror_key;
        tc "forged mirror entry overwrites (known hole, item 3)" test_forged_mirror_known_hole;
      ] );
  ]
