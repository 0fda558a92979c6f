open Bp_sim
open Bp_pbft

let ms = Time.of_ms

(* A cache that keeps nothing, over [cfg]'s keystore: every signature
   and digest is recomputed. *)
let no_cache (cfg : Config.t) =
  Bp_crypto.Verify_cache.create ~capacity:0 ~digest_budget:0 cfg.Config.keystore

type cluster = {
  engine : Engine.t;
  net : Network.t;
  cfg : Config.t;
  replicas : Replica.t array;
  transports : Bp_net.Transport.t array;
  (* per-replica (seq, digest) execution records, for agreement checks *)
  executed : (int * string) list ref array;
}

(* A Blockplane-unit-like deployment: n replicas inside one datacenter
   (default), or spread one per datacenter with [geo]. *)
let make_cluster ?(n = 4) ?(geo = false) ?faults ?(seed = 31L)
    ?(request_timeout = ms 500.0) ?(checkpoint_interval = 32) ?batch_max
    ?watermark_window ?max_in_flight () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper ?faults () in
  let keystore = Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine)) in
  let addrs =
    Array.init n (fun i ->
        if geo then Addr.make ~dc:(i mod 4) ~idx:0 else Addr.make ~dc:2 ~idx:i)
  in
  let cfg =
    Config.make ~nodes:addrs ~keystore ~request_timeout ~checkpoint_interval
      ?batch_max ?watermark_window ?max_in_flight ()
  in
  let executed = Array.init n (fun _ -> ref []) in
  let transports = Array.map (fun a -> Bp_net.Transport.create net a) addrs in
  let replicas =
    Array.init n (fun i ->
        let r =
          Replica.create ~cache:(no_cache cfg) transports.(i) cfg ~id:i
            ~execute:(fun ~seq:_ r -> "ok:" ^ r.Msg.op)
            ()
        in
        let cache = no_cache cfg in
        Replica.set_on_executed r (fun ~seq batch ->
            executed.(i) := (seq, Msg.batch_digest ~cache batch) :: !(executed.(i)));
        r)
  in
  { engine; net; cfg; replicas; transports; executed }

let make_client c ~dc ~idx =
  let addr = Addr.make ~dc ~idx in
  let transport = Bp_net.Transport.create c.net addr in
  Client.create ~cache:(no_cache c.cfg) transport c.cfg

(* Honest replicas must never execute different batches at one sequence. *)
let check_agreement c =
  let merged = Hashtbl.create 64 in
  Array.iteri
    (fun i log ->
      List.iter
        (fun (seq, digest) ->
          match Hashtbl.find_opt merged seq with
          | None -> Hashtbl.replace merged seq digest
          | Some d ->
              if not (String.equal d digest) then
                Alcotest.failf "divergent execution at seq %d (replica %d)" seq i)
        !log)
    c.executed

let test_msg_roundtrip () =
  let engine = Engine.create () in
  let keystore = Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine)) in
  let addrs = Array.init 4 (fun i -> Addr.make ~dc:0 ~idx:i) in
  let cfg = Config.make ~nodes:addrs ~keystore () in
  let cache = no_cache cfg in
  let r =
    Msg.make_request ~cache cfg ~client:(Addr.make ~dc:1 ~idx:9) ~ts:3 ~kind:1
      ~op:"op"
  in
  Alcotest.(check bool) "request valid" true (Msg.request_valid ~cache cfg r);
  let bodies =
    [
      Msg.Request r;
      Msg.Pre_prepare { view = 0; seq = 1; digest = "d"; batch = [ r ] };
      Msg.Prepare { view = 0; seq = 1; digest = "d"; replica = 2 };
      Msg.Commit { view = 0; seq = 1; digest = "d"; replica = 2 };
      Msg.Reply
        { view = 0; ts = 3; client = r.Msg.client; replica = 1; result = "res" };
      Msg.Checkpoint { seq = 8; state_digest = "sd"; replica = 0 };
      Msg.View_change
        {
          Msg.new_view = 1;
          stable_seq = 0;
          prepared =
            [ { Msg.pview = 0; pseq = 1; pdigest = "d"; pbatch = [ r ]; prepares = [ "pp" ] } ];
          vc_replica = 3;
        };
      Msg.New_view { view = 1; view_change_envelopes = [ "vc" ]; replica = 1 };
    ]
  in
  List.iter
    (fun b ->
      match Msg.decode_body (Msg.encode_body b) with
      | Ok b' ->
          Alcotest.(check string) "body roundtrip" (Msg.encode_body b)
            (Msg.encode_body b')
      | Error e -> Alcotest.fail e)
    bodies

let test_envelope_verification () =
  let engine = Engine.create () in
  let keystore = Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine)) in
  let addrs = Array.init 4 (fun i -> Addr.make ~dc:0 ~idx:i) in
  let cfg = Config.make ~nodes:addrs ~keystore () in
  let cache = no_cache cfg in
  let body = Msg.Prepare { view = 0; seq = 1; digest = "d"; replica = 2 } in
  (* Properly signed by replica 2. *)
  (match Msg.verify_envelope ~cache cfg (Msg.seal ~cache cfg ~sender:addrs.(2) body) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid envelope rejected: %s" e);
  (* Signed by replica 1 but claiming to be replica 2: impersonation. *)
  (match Msg.verify_envelope ~cache cfg (Msg.seal ~cache cfg ~sender:addrs.(1) body) with
  | Ok _ -> Alcotest.fail "impersonation accepted"
  | Error _ -> ());
  (* Garbage signature. *)
  match Msg.verify_envelope ~cache cfg (Msg.seal_forged cfg ~sender:addrs.(2) body) with
  | Ok _ -> Alcotest.fail "forged signature accepted"
  | Error _ -> ()

(* The New_view derivation from its certificate. Replica 3 reports seq 1
   prepared with 2f = 2 valid Prepare envelopes (replicas 1 and 2)
   beside three bad ones: a Prepare for another digest, a forged one and
   a second copy of replica 1's. The slot is re-proposed exactly while
   2f distinct replicas' valid envelopes remain, and never for a batch
   that does not hash to the proof's digest. Only the first View_change
   for the view from each replica counts towards the 2f+1. *)
let test_new_view_certificate () =
  let engine = Engine.create () in
  let keystore = Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine)) in
  let nodes = Array.init 4 (fun i -> Addr.make ~dc:0 ~idx:i) in
  let cfg = Config.make ~nodes ~keystore () in
  let cache = no_cache cfg in
  let request op =
    Msg.make_request ~cache cfg ~client:(Addr.make ~dc:1 ~idx:9) ~ts:1 ~kind:0 ~op
  in
  let batch = [ request "x" ] in
  let digest = Msg.batch_digest ~cache batch in
  let prepare ?(digest = digest) i = Msg.Prepare { view = 0; seq = 1; digest; replica = i } in
  let valid i = Msg.seal ~cache cfg ~sender:nodes.(i) (prepare i) in
  let prepares =
    [
      valid 1;
      valid 2;
      Msg.seal ~cache cfg ~sender:nodes.(3) (prepare ~digest:"other" 3);
      Msg.seal_forged cfg ~sender:nodes.(3) (prepare 3);
      valid 1;
    ]
  in
  let view_change i prepared =
    Msg.seal ~cache cfg ~sender:nodes.(i)
      (Msg.View_change { new_view = 1; stable_seq = 0; prepared; vc_replica = i })
  in
  let certificate ?(pbatch = batch) prepares =
    [
      view_change 1 [];
      view_change 2 [];
      view_change 3 [ { Msg.pview = 0; pseq = 1; pdigest = digest; pbatch; prepares } ];
    ]
  in
  (* Requests compare by their wire bytes: the memos are per copy. *)
  let same_request r r' =
    String.equal (Msg.encode_body (Msg.Request r)) (Msg.encode_body (Msg.Request r'))
  in
  let derive ?(view = 1) envelopes =
    Option.map
      (List.map (fun (seq, d, b) ->
           (seq, String.equal d digest && List.equal same_request b batch)))
      (Replica.new_view_batches ~cache cfg ~view envelopes)
  in
  let check = Alcotest.(check (option (list (pair int bool)))) in
  check "2f valid among the bad three: re-proposed" (Some [ (1, true) ])
    (derive (certificate prepares));
  List.iteri
    (fun k _ ->
      let rest = List.filteri (fun i _ -> i <> k) prepares in
      (* Only dropping replica 2's envelope leaves one distinct signer. *)
      check
        (Printf.sprintf "without envelope %d" k)
        (if k = 1 then Some [] else Some [ (1, true) ])
        (derive (certificate rest)))
    prepares;
  check "a batch that does not hash to the digest" (Some [])
    (derive (certificate ~pbatch:[ request "y" ] prepares));
  check "a repeated View_change counts once" None
    (derive [ view_change 1 []; view_change 1 []; view_change 2 [] ]);
  check "View_changes for another view do not count" None
    (derive ~view:2 (certificate prepares))

(* Random bodies of every constructor [Msg.body_size] sizes, with field
   values across varint length boundaries, for the exact-size encoder. *)
let gen_request =
  QCheck.Gen.(
    let big = oneof [ 0 -- 200; 0 -- 100_000; oneofl [ 127; 128; 16383; 16384; max_int ] ] in
    map
      (fun ((dc, idx, ts), (kind, op, client_sig)) ->
        {
          Msg.client = Addr.make ~dc ~idx;
          ts;
          kind;
          op;
          client_sig;
          decoded = Msg.Not_decoded;
          executions = 0;
          sha = Bp_crypto.Verify_cache.sha_memo ();
        })
      (pair (triple big big big)
         (triple (0 -- 255)
            (string_size (oneof [ 0 -- 300; oneofl [ 16383; 16384 ] ]))
            (string_size (0 -- 64)))))

let gen_sized_body =
  QCheck.Gen.(
    let num = oneof [ 0 -- 200; 0 -- max_int; oneofl [ 127; 128; 16383; 16384 ] ] in
    let text = string_size (oneof [ 0 -- 40; oneofl [ 127; 128 ] ]) in
    oneof
      [
        map (fun r -> Msg.Request r) gen_request;
        map
          (fun ((view, seq), (digest, batch)) -> Msg.Pre_prepare { view; seq; digest; batch })
          (pair
             (pair (oneof [ 0 -- 200; 0 -- max_int ]) (oneof [ 0 -- 200; 0 -- max_int ]))
             (pair (string_size (0 -- 40)) (list_size (0 -- 20) gen_request)));
        map
          (fun ((view, seq, replica), digest) -> Msg.Prepare { view; seq; digest; replica })
          (pair (triple num num num) text);
        map
          (fun ((view, seq, replica), digest) -> Msg.Commit { view; seq; digest; replica })
          (pair (triple num num num) text);
        map
          (fun ((view, ts, replica), (dc, idx, result)) ->
            Msg.Reply { view; ts; client = Addr.make ~dc ~idx; replica; result })
          (pair (triple num num num) (triple num num text));
        map
          (fun ((seq, replica), state_digest) ->
            Msg.Checkpoint { seq; state_digest; replica })
          (pair (pair num num) text);
        map (fun (from_seq, replica) -> Msg.Fetch { from_seq; replica }) (pair num num);
      ])

let qcheck_body_size =
  QCheck.Test.make ~name:"body_size = length of encode_body" ~count:100
    (QCheck.make gen_sized_body) (fun b ->
      match Msg.body_size b with
      | Some n -> n = String.length (Msg.encode_body b)
      | None -> false)

(* The envelope check against its reference ([Msg_ref]): sealed bodies of
   every constructor, some left intact and some damaged, must get the
   same verdict (the same body, or the same error) and leave the two
   verify caches with the same counters. Mutations: truncation, a flipped
   bit, trailing bytes, a length prefix claiming more than the envelope
   holds, and a seal by some other identity than the one the body names.
   A [Msg.Sealed] hint changes nothing but where an [Ok] body comes
   from. *)
let qcheck_envelope_matches_reference =
  let engine = Engine.create () in
  let keystore = Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine)) in
  let nodes = Array.init 4 (fun i -> Addr.make ~dc:0 ~idx:i) in
  let client = Addr.make ~dc:1 ~idx:9 in
  let cfg = Config.make ~nodes ~keystore () in
  (* Provision every identity up front, so neither path adds one (and
     bumps the keystore generation) half way through a comparison. *)
  Array.iter (fun a -> ignore (Config.identity cfg a)) nodes;
  ignore (Config.identity cfg client);
  let signing = Bp_crypto.Verify_cache.create keystore in
  let gen_op = QCheck.Gen.(string_size (oneof [ 0 -- 40; 200 -- 600 ])) in
  let gen_signed_request =
    QCheck.Gen.map
      (fun (ts, kind, op) ->
        Msg.make_request ~cache:signing cfg ~client ~ts ~kind ~op)
      QCheck.Gen.(triple (0 -- 1000) (0 -- 3) gen_op)
  in
  let gen_batches =
    QCheck.Gen.(
      list_size (0 -- 3)
        (triple (0 -- 50) (string_size (return 32)) (list_size (0 -- 3) gen_signed_request)))
  in
  let gen_body =
    QCheck.Gen.(
      let replica = 0 -- 4 (* 4 names no replica *) and small = 0 -- 50 in
      let digest = string_size (0 -- 32) in
      oneof
        [
          map (fun r -> Msg.Request r) gen_signed_request;
          map
            (fun (view, seq, batch) ->
              Msg.Pre_prepare
                { view; seq; digest = Msg.batch_digest ~cache:signing batch; batch })
            (triple small small (list_size (0 -- 4) gen_signed_request));
          map
            (fun ((view, seq), (digest, replica)) -> Msg.Prepare { view; seq; digest; replica })
            (pair (pair small small) (pair digest replica));
          map
            (fun ((view, seq), (digest, replica)) -> Msg.Commit { view; seq; digest; replica })
            (pair (pair small small) (pair digest replica));
          map
            (fun ((view, ts), (replica, result)) ->
              Msg.Reply { view; ts; client; replica; result })
            (pair (pair small small) (pair replica (string_size (0 -- 20))));
          map
            (fun (seq, state_digest, replica) -> Msg.Checkpoint { seq; state_digest; replica })
            (triple small digest replica);
          map
            (fun ((new_view, stable_seq), (batches, vc_replica)) ->
              Msg.View_change
                {
                  new_view;
                  stable_seq;
                  prepared =
                    List.map
                      (fun (pseq, pdigest, pbatch) ->
                        { Msg.pview = 0; pseq; pdigest; pbatch; prepares = [ "pp" ] })
                      batches;
                  vc_replica;
                })
            (pair (pair small small) (pair gen_batches replica));
          map
            (fun ((view, envelopes), replica) ->
              Msg.New_view { view; view_change_envelopes = envelopes; replica })
            (pair
               (pair small (list_size (0 -- 3) (string_size (oneof [ 0 -- 20; 100 -- 300 ]))))
               replica);
          map (fun (from_seq, replica) -> Msg.Fetch { from_seq; replica }) (pair small replica);
          map
            (fun (batches, replica) -> Msg.Fetch_reply { batches; replica })
            (pair gen_batches replica);
        ])
  in
  let split_envelope env =
    match
      Bp_codec.Wire.decode env (fun d ->
          let encoded = Bp_codec.Wire.read_string d in
          (encoded, Bp_codec.Wire.read_string d))
    with
    | Ok parts -> parts
    | Error e -> failwith e
  in
  (* (mutation, position, amount) *)
  let gen_case = QCheck.Gen.(pair gen_body (triple (0 -- 6) nat nat)) in
  QCheck.Test.make ~name:"verify_envelope = reference on every mutation" ~count:300
    (QCheck.make gen_case)
    (fun (body, (mutation, pos, amount)) ->
      let named = Option.value ~default:nodes.(0) (Msg.sender_of cfg body) in
      let sealed = Msg.seal ~cache:signing cfg ~sender:named body in
      let len = String.length sealed in
      let envelope =
        match mutation with
        | 0 -> sealed
        | 1 -> String.sub sealed 0 (pos mod len)
        | 2 ->
            let b = Bytes.of_string sealed in
            let i = pos mod len in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (amount land 7))));
            Bytes.to_string b
        | 3 -> sealed ^ String.make (1 + (amount mod 8)) '\x00'
        | 4 ->
            let encoded, signature = split_envelope sealed in
            let claimed =
              if amount land 1 = 0 then String.length encoded + 1 + (amount mod 5000)
              else max_int - (amount mod 1000)
            in
            Bp_codec.Wire.encode (fun e ->
                Bp_codec.Wire.varint e claimed;
                Bp_codec.Wire.fixed e encoded;
                Bp_codec.Wire.string e signature)
        | 5 ->
            let other = if pos mod 5 = 4 then client else nodes.(pos mod 4) in
            Msg.seal ~cache:signing cfg ~sender:other body
        | _ -> Msg.seal_forged cfg ~sender:named body
      in
      (* The undamaged envelope's body as a delivery hint: honoured for
         that very string only. A re-sealed or forged envelope of the
         same body gets its own, truthful hint, which must not make the
         wrong signature verify; every other damaged copy is a different
         string, so its hint is ignored. *)
      let hinted_envelope = match mutation with 5 | 6 -> envelope | _ -> sealed in
      let hint = Msg.Sealed { envelope = hinted_envelope; body } in
      let fresh () = Bp_crypto.Verify_cache.create ~capacity:16 keystore in
      let c_ref = fresh () and c_new = fresh () and c_hint = fresh () in
      let expected = Msg_ref.verify_envelope ~cache:c_ref cfg envelope in
      let actual = Msg.verify_envelope ~cache:c_new cfg envelope in
      let hinted = Msg.verify_envelope ~cache:c_hint ~hint cfg envelope in
      let same expected actual =
        match (expected, actual) with
        | Ok a, Ok b -> String.equal (Msg.encode_body a) (Msg.encode_body b)
        | Error a, Error b -> String.equal a b
        | Ok _, Error _ | Error _, Ok _ -> false
      in
      let shares_hint =
        match hinted with
        | Ok b -> (b == body) = (hinted_envelope == envelope)
        | Error _ -> true
      in
      same expected actual && same expected hinted && shares_hint
      && Bp_crypto.Verify_cache.instance_counters c_ref
         = Bp_crypto.Verify_cache.instance_counters c_new
      && Bp_crypto.Verify_cache.instance_counters c_ref
         = Bp_crypto.Verify_cache.instance_counters c_hint)

let test_normal_case_commit () =
  let c = make_cluster () in
  let client = make_client c ~dc:2 ~idx:100 in
  let result = ref "" in
  Client.submit client "hello" ~on_result:(fun r -> result := r);
  Engine.run ~until:(Time.of_sec 2.0) c.engine;
  Alcotest.(check string) "replicated result" "ok:hello" !result;
  Alcotest.(check int) "client satisfied" 0 (Client.in_flight client);
  Array.iteri
    (fun i r ->
      Alcotest.(check int) (Printf.sprintf "replica %d executed" i) 1
        (Replica.last_executed r))
    c.replicas;
  check_agreement c

let test_exec_chains_agree () =
  let c = make_cluster () in
  let client = make_client c ~dc:2 ~idx:100 in
  for i = 1 to 20 do
    Client.submit client (Printf.sprintf "op-%d" i) ~on_result:ignore
  done;
  Engine.run ~until:(Time.of_sec 5.0) c.engine;
  let chain0 = Replica.exec_chain c.replicas.(0) in
  Array.iteri
    (fun i r ->
      Alcotest.(check string)
        (Printf.sprintf "chain %d" i)
        (Bp_util.Hex.encode chain0)
        (Bp_util.Hex.encode (Replica.exec_chain r)))
    c.replicas;
  Alcotest.(check int) "all executed" 20
    (List.fold_left (fun acc (_, d) -> acc + if String.length d > 0 then 1 else 0) 0
       []
    |> fun _ ->
    Array.fold_left (fun acc r -> Stdlib.max acc (Replica.last_executed r)) 0 c.replicas
    |> fun last -> if last > 0 then 20 else 0)
  |> ignore;
  check_agreement c

let test_batching_groups_requests () =
  let c = make_cluster () in
  let client = make_client c ~dc:2 ~idx:100 in
  let done_count = ref 0 in
  for i = 1 to 50 do
    Client.submit client (Printf.sprintf "op-%d" i) ~on_result:(fun _ -> incr done_count)
  done;
  Engine.run ~until:(Time.of_sec 5.0) c.engine;
  Alcotest.(check int) "all requests answered" 50 !done_count;
  (* Group commit: far fewer batches than requests. *)
  let batches = List.length !(c.executed.(0)) in
  Alcotest.(check bool)
    (Printf.sprintf "%d batches for 50 requests" batches)
    true (batches >= 2 && batches <= 10);
  check_agreement c

let test_local_commit_latency_about_1ms () =
  (* Fig. 4(a): intra-datacenter commit of a small batch within ~1 ms. *)
  let c = make_cluster () in
  let client = make_client c ~dc:2 ~idx:100 in
  let started = ref Time.zero and finished = ref Time.zero in
  ignore (Engine.schedule c.engine ~after:(ms 1.0) (fun () ->
      started := Engine.now c.engine;
      Client.submit client (String.make 1000 'x') ~on_result:(fun _ ->
          finished := Engine.now c.engine)));
  Engine.run ~until:(Time.of_sec 2.0) c.engine;
  let lat = Time.to_ms (Time.diff !finished !started) in
  Alcotest.(check bool)
    (Printf.sprintf "latency %.3fms in [0.5, 2.5]" lat)
    true
    (lat >= 0.5 && lat <= 2.5)

let test_backup_crash_tolerated () =
  let c = make_cluster () in
  Network.crash c.net (Addr.make ~dc:2 ~idx:3);
  let client = make_client c ~dc:2 ~idx:100 in
  let result = ref "" in
  Client.submit client "with-one-down" ~on_result:(fun r -> result := r);
  Engine.run ~until:(Time.of_sec 2.0) c.engine;
  Alcotest.(check string) "commits with f crashed" "ok:with-one-down" !result

let test_two_crashes_stall () =
  let c = make_cluster () in
  Network.crash c.net (Addr.make ~dc:2 ~idx:2);
  Network.crash c.net (Addr.make ~dc:2 ~idx:3);
  let client = make_client c ~dc:2 ~idx:100 in
  let got = ref false in
  Client.submit client "never" ~on_result:(fun _ -> got := true);
  Engine.run ~until:(Time.of_sec 3.0) c.engine;
  Alcotest.(check bool) "f+1 crashes stall the protocol" false !got

let test_byzantine_silent_commit_phase () =
  let c = make_cluster () in
  Replica.suppress_commit_votes c.replicas.(3) true;
  let client = make_client c ~dc:2 ~idx:100 in
  let result = ref "" in
  Client.submit client "quiet-byz" ~on_result:(fun r -> result := r);
  Engine.run ~until:(Time.of_sec 2.0) c.engine;
  Alcotest.(check string) "commits despite silent replica" "ok:quiet-byz" !result;
  check_agreement c

let test_primary_crash_view_change () =
  let c = make_cluster () in
  let client = make_client c ~dc:2 ~idx:100 in
  Network.crash c.net (Addr.make ~dc:2 ~idx:0);
  let result = ref "" in
  Client.submit client "survive" ~on_result:(fun r -> result := r);
  (* Replicas 1-3 settle in view 1 and stay there without load: a
     view-change timer left armed would move them on to view 2. *)
  let check_settled ~at =
    Array.iteri
      (fun i r ->
        if i <> 0 then
          Alcotest.(check (pair int bool))
            (Printf.sprintf "replica %d in view 1, normal, at %s" i at)
            (1, true)
            (Replica.view r, Replica.is_normal r))
      c.replicas
  in
  Engine.run ~until:(Time.of_sec 10.0) c.engine;
  Alcotest.(check string) "request served after view change" "ok:survive" !result;
  check_settled ~at:"10 s";
  Engine.run ~until:(Time.of_sec 40.0) c.engine;
  check_settled ~at:"40 s";
  check_agreement c

let test_view_change_preserves_committed () =
  let c = make_cluster () in
  let client = make_client c ~dc:2 ~idx:100 in
  let first = ref "" in
  Client.submit client "pre-crash" ~on_result:(fun r -> first := r);
  Engine.run ~until:(Time.of_sec 1.0) c.engine;
  Alcotest.(check string) "first committed" "ok:pre-crash" !first;
  Network.crash c.net (Addr.make ~dc:2 ~idx:0);
  let second = ref "" in
  Client.submit client "post-crash" ~on_result:(fun r -> second := r);
  Engine.run ~until:(Time.of_sec 10.0) c.engine;
  Alcotest.(check string) "second committed in new view" "ok:post-crash" !second;
  check_agreement c

(* A request's [decoded] memo as a unit node uses it: delivery hints
   hand every replica the client's own request record, so the first
   replica to verify the request decodes its op and the others reuse
   that decoding. Each execution counts; the n-th drops the memo, so an
   archived batch does not pin it. *)
type Msg.decoded += Seen

let test_decoded_memo_shared_until_last_execution () =
  let c = make_cluster () in
  let decodes = ref 0 and after_exec = ref [] in
  Array.iter
    (fun r ->
      Replica.set_verifier r (fun req ->
          (match req.Msg.decoded with
          | Msg.Not_decoded ->
              incr decodes;
              req.Msg.decoded <- Seen
          | _ -> ());
          true);
      Replica.set_on_executed r (fun ~seq:_ batch ->
          List.iter
            (fun req ->
              let memo =
                match req.Msg.decoded with Msg.Not_decoded -> false | _ -> true
              in
              after_exec := (req.Msg.executions, memo) :: !after_exec)
            batch))
    c.replicas;
  let client = make_client c ~dc:2 ~idx:100 in
  let result = ref "" in
  Client.submit client "decode me once" ~on_result:(fun r -> result := r);
  Engine.run ~until:(Time.of_sec 2.0) c.engine;
  Alcotest.(check string) "committed" "ok:decode me once" !result;
  Alcotest.(check int) "one decode for the cluster" 1 !decodes;
  Alcotest.(check (list (pair int bool)))
    "memo kept until the n-th execution"
    [ (1, true); (2, true); (3, true); (4, false) ]
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) !after_exec)

let test_verification_routine_blocks_invalid () =
  (* Blockplane §IV-B: replicas run the verification routine before the
     commit vote; an op every honest replica rejects can never commit. *)
  let c = make_cluster () in
  Array.iter
    (fun r -> Replica.set_verifier r (fun req -> req.Msg.kind <> 7))
    c.replicas;
  let client = make_client c ~dc:2 ~idx:100 in
  let bad = ref None and good = ref false in
  Client.submit client ~kind:7 "illegal" ~on_result:(fun r -> bad := Some r);
  Client.submit client ~kind:0 "legal" ~on_result:(fun _ -> good := true);
  Engine.run ~until:(Time.of_sec 5.0) c.engine;
  (* A rejection answer is fine; only an execution of the op is not. *)
  Alcotest.(check bool) "illegal op never commits" false
    (Option.equal String.equal !bad (Some "ok:illegal"));
  Alcotest.(check bool) "legal op commits" true !good;
  check_agreement c

(* ROADMAP item 20, second defect: a request the primary pre-rejects
   gets one "__rejected" reply of the f+1 its client needs. The client's
   rebroadcast reaches backups whose last_reply already holds the later
   request of the same client, so every replica drops it and the
   request never answers. The fix for item 20 flips the labelled
   assertion to an answer. *)
let test_pre_rejected_never_answers_known_hole () =
  let c = make_cluster () in
  Array.iter
    (fun r -> Replica.set_verifier r (fun req -> req.Msg.kind <> 7))
    c.replicas;
  let client = make_client c ~dc:2 ~idx:100 in
  let bad = ref None and good = ref None in
  Client.submit client ~kind:7 "illegal" ~on_result:(fun r -> bad := Some r);
  Client.submit client ~kind:0 "legal" ~on_result:(fun r -> good := Some r);
  Engine.run ~until:(Time.of_sec 10.0) c.engine;
  Alcotest.(check (option string)) "legal op commits" (Some "ok:legal") !good;
  Alcotest.(check (pair (option string) int))
    "ROADMAP item 20: the pre-rejected request never answers" (None, 1)
    (!bad, Client.in_flight client);
  check_agreement c

(* A request the verifier accepts on arrival but rejects at the batch
   cut (an equal op executed meanwhile) is dropped there with its timer,
   so the primary does not suspect itself: it is still in view 0, and
   not changing view, after two request timeouts. *)
let test_cut_drop_keeps_view () =
  let c = make_cluster ~batch_max:1 ~max_in_flight:1 () in
  let cache = no_cache c.cfg in
  Array.iteri
    (fun i r ->
      let executed_ops = Hashtbl.create 4 in
      Replica.set_verifier r (fun req -> not (Hashtbl.mem executed_ops req.Msg.op));
      Replica.set_on_executed r (fun ~seq batch ->
          List.iter (fun req -> Hashtbl.replace executed_ops req.Msg.op ()) batch;
          c.executed.(i) := (seq, Msg.batch_digest ~cache batch) :: !(c.executed.(i))))
    c.replicas;
  let client = make_client c ~dc:2 ~idx:100 in
  let results = ref [] in
  for _ = 1 to 2 do
    Client.submit client "once" ~on_result:(fun r -> results := r :: !results)
  done;
  Engine.run ~until:(Time.scale c.cfg.Config.request_timeout 2.0) c.engine;
  Alcotest.(check (list string)) "the first executes, the second is rejected"
    [ "__rejected"; "ok:once" ] !results;
  Alcotest.(check (pair int bool)) "primary in view 0, not changing view" (0, true)
    (Replica.view c.replicas.(0), Replica.is_normal c.replicas.(0));
  check_agreement c

let test_equivocating_primary_no_divergence () =
  let c = make_cluster () in
  (* Take over the primary: silence the honest logic and send conflicting
     pre-prepares to different backups for the same (view 0, seq 1). *)
  Replica.stop c.replicas.(0);
  let cache = no_cache c.cfg in
  let mk op =
    Msg.make_request ~cache c.cfg ~client:(Addr.make ~dc:2 ~idx:50) ~ts:1 ~kind:0 ~op
  in
  let batch_a = [ mk "A" ] and batch_b = [ mk "B" ] in
  let pp batch =
    Msg.seal ~cache c.cfg ~sender:c.cfg.Config.nodes.(0)
      (Msg.Pre_prepare
         { view = 0; seq = 1; digest = Msg.batch_digest ~cache batch; batch })
  in
  let send i payload =
    Bp_net.Transport.send c.transports.(0) ~dst:c.cfg.Config.nodes.(i)
      ~tag:c.cfg.Config.tag payload
  in
  send 1 (pp batch_a);
  send 2 (pp batch_a);
  send 3 (pp batch_b);
  Engine.run ~until:(Time.of_sec 15.0) c.engine;
  (* Whatever committed, the honest replicas never diverge. *)
  check_agreement c;
  (* And the system made progress into a new view (the equivocation
     starved seq 1, timers fired). *)
  Alcotest.(check bool) "view changed" true (Replica.view c.replicas.(1) >= 1)

let test_checkpoint_garbage_collection () =
  let c = make_cluster ~checkpoint_interval:4 () in
  let client = make_client c ~dc:2 ~idx:100 in
  let served = ref 0 in
  let rec submit_next i =
    if i <= 30 then
      Client.submit client (Printf.sprintf "op%d" i) ~on_result:(fun _ ->
          incr served;
          submit_next (i + 1))
  in
  submit_next 1;
  Engine.run ~until:(Time.of_sec 10.0) c.engine;
  Alcotest.(check int) "all served" 30 !served;
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d advanced watermark" i)
        true
        (Replica.low_watermark r >= 4))
    c.replicas

let test_geo_pbft_latency () =
  (* Fig. 7 flat PBFT baseline: one replica per datacenter, client near
     the primary (California). Expect ~100-160 ms. *)
  let c = make_cluster ~geo:true ~seed:41L () in
  let client = make_client c ~dc:0 ~idx:100 in
  let started = ref Time.zero and finished = ref Time.zero in
  started := Engine.now c.engine;
  Client.submit client "geo" ~on_result:(fun _ -> finished := Engine.now c.engine);
  Engine.run ~until:(Time.of_sec 3.0) c.engine;
  let lat = Time.to_ms (Time.diff !finished !started) in
  Alcotest.(check bool)
    (Printf.sprintf "geo PBFT latency %.1fms in [90, 170]" lat)
    true
    (lat >= 90.0 && lat <= 170.0)

let test_safety_under_faults_randomized () =
  for seed = 1 to 8 do
    let faults = { Network.no_faults with drop = 0.05; duplicate = 0.05 } in
    let c = make_cluster ~faults ~seed:(Int64.of_int (100 + seed)) () in
    (* One byzantine replica silent in commit phase the whole time. *)
    Replica.suppress_commit_votes c.replicas.(1) true;
    let client = make_client c ~dc:2 ~idx:100 in
    let served = ref 0 in
    for i = 1 to 10 do
      Client.submit client (Printf.sprintf "s%d-%d" seed i) ~on_result:(fun _ -> incr served)
    done;
    Engine.run ~until:(Time.of_sec 30.0) c.engine;
    Alcotest.(check int) (Printf.sprintf "seed %d: all served" seed) 10 !served;
    check_agreement c
  done

let test_larger_cluster_n7 () =
  let c = make_cluster ~n:7 () in
  let client = make_client c ~dc:2 ~idx:100 in
  let result = ref "" in
  Client.submit client "seven" ~on_result:(fun r -> result := r);
  Engine.run ~until:(Time.of_sec 2.0) c.engine;
  Alcotest.(check string) "n=7 commits" "ok:seven" !result;
  (* f = 2: two crashes tolerated. *)
  Network.crash c.net (Addr.make ~dc:2 ~idx:5);
  Network.crash c.net (Addr.make ~dc:2 ~idx:6);
  let again = ref "" in
  Client.submit client "still-alive" ~on_result:(fun r -> again := r);
  Engine.run ~until:(Time.of_sec 4.0) c.engine;
  Alcotest.(check string) "n=7 with 2 crashed" "ok:still-alive" !again

let test_config_validation () =
  let engine = Engine.create () in
  let keystore = Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine)) in
  let nodes4 = Array.init 4 (fun i -> Addr.make ~dc:0 ~idx:i) in
  let expect_invalid what mk =
    try
      ignore (mk ());
      Alcotest.failf "%s accepted" what
    with Invalid_argument _ -> ()
  in
  expect_invalid "n=5" (fun () ->
      Config.make ~nodes:(Array.init 5 (fun i -> Addr.make ~dc:0 ~idx:i)) ~keystore ());
  expect_invalid "batch_max=0" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~batch_max:0 ());
  expect_invalid "checkpoint_interval=-1" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~checkpoint_interval:(-1) ());
  expect_invalid "watermark_window=0" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~watermark_window:0 ());
  expect_invalid "max_in_flight=0" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~max_in_flight:0 ());
  expect_invalid "checkpoint beyond window" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~checkpoint_interval:64
        ~watermark_window:32 ());
  expect_invalid "batch_min_fill=0" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~batch_min_fill:0 ());
  expect_invalid "batch_min_fill beyond batch_max" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~batch_max:8 ~batch_min_fill:9 ());
  (* Deferring cuts without a hold bound could stall a trickle forever. *)
  expect_invalid "min_fill>1 without hold timer" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~batch_min_fill:2 ());
  expect_invalid "negative batch_hold" (fun () ->
      Config.make ~nodes:nodes4 ~keystore ~batch_min_fill:2
        ~batch_hold:(Time.of_ms (-1.0)) ());
  let held =
    Config.make ~nodes:nodes4 ~keystore ~batch_min_fill:16
      ~batch_hold:(Time.of_ms 0.25) ()
  in
  Alcotest.(check int) "min fill accepted" 16 held.Config.batch_min_fill;
  (* A pipeline deeper than the window is clamped, not rejected: the
     window is the hard bound on concurrently-open slots. *)
  let clamped =
    Config.make ~nodes:nodes4 ~keystore ~checkpoint_interval:8
      ~watermark_window:16 ~max_in_flight:64 ()
  in
  Alcotest.(check int) "depth clamped to window" 16 clamped.Config.max_in_flight;
  let cfg = Config.make ~nodes:(Array.init 7 (fun i -> Addr.make ~dc:0 ~idx:i)) ~keystore () in
  Alcotest.(check int) "f" 7 (Config.n cfg);
  Alcotest.(check int) "quorum" 5 (Config.quorum cfg);
  Alcotest.(check int) "primary rotation" 3 (Config.primary_of_view cfg 10)

(* Identity strings are memoized per address, but the first use of a
   client address must still provision it in the keystore right then:
   provisioning draws a key from the keystore RNG, so the draw order fixes
   every later key. *)
let test_identity_memo () =
  let nodes = Array.init 4 (fun i -> Addr.make ~dc:0 ~idx:i) in
  let client = Addr.make ~dc:1 ~idx:9 in
  let build () =
    let keystore = Bp_crypto.Signer.create (Bp_util.Rng.create 77L) in
    (keystore, Config.make ~nodes ~keystore ())
  in
  let keystore, cfg = build () in
  let generation () = Bp_crypto.Signer.generation keystore in
  let g0 = generation () in
  ignore (Config.identity cfg nodes.(2));
  Alcotest.(check int) "replicas provisioned by make" g0 (generation ());
  let id = Config.identity cfg client in
  Alcotest.(check string) "identity bytes" "pbft/n1.9" id;
  Alcotest.(check int) "first use provisions once" (g0 + 1) (generation ());
  for _ = 1 to 3 do
    Alcotest.(check string) "repeat is equal" id (Config.identity cfg client)
  done;
  Alcotest.(check int) "repeats do not provision" (g0 + 1) (generation ());
  (* Same seed, same provisioning order: the same keys, so the same
     signed envelope bytes. *)
  let sealed cfg =
    ignore (Config.identity cfg client);
    let cache = no_cache cfg in
    let r = Msg.make_request ~cache cfg ~client ~ts:1 ~kind:0 ~op:"op" in
    Msg.seal ~cache cfg ~sender:client (Msg.Request r)
  in
  let _, twin = build () in
  Alcotest.(check string) "same seed signs identically" (sealed cfg)
    (sealed twin)

(* A PBFT broadcast (seal + transport fan-out) must serialize the message
   a fixed number of times — body, signed envelope, transport suffix —
   no matter how many replicas receive it. *)
let pbft_broadcast_encode_delta ~n =
  let c = make_cluster ~n () in
  let body = Msg.Prepare { view = 0; seq = 1; digest = "d"; replica = 0 } in
  let before = Bp_codec.Wire.encode_calls () in
  let sealed = Msg.seal ~cache:(no_cache c.cfg) c.cfg ~sender:c.cfg.Config.nodes.(0) body in
  Bp_net.Transport.broadcast c.transports.(0) ~dsts:c.cfg.Config.nodes
    ~tag:c.cfg.Config.tag sealed;
  Bp_codec.Wire.encode_calls () - before

let test_broadcast_seals_and_encodes_once () =
  let d4 = pbft_broadcast_encode_delta ~n:4 in
  let d7 = pbft_broadcast_encode_delta ~n:7 in
  Alcotest.(check int) "body + envelope + transport suffix" 3 d4;
  Alcotest.(check int) "independent of cluster size" d4 d7

(* ---------- windowed pipelining (multi-slot consensus) ---------- *)

(* With commit votes suppressed on every replica, a depth-d primary
   drives several slots to prepared and no further — a pipeline's worth
   of prepared-but-unexecuted sequences. The view change must then carry
   every prepared slot into the new view and commit them all, in order,
   once votes flow again. *)
let test_view_change_with_pipelined_slots () =
  List.iter
    (fun depth ->
      let c =
        make_cluster ~batch_max:1 ~max_in_flight:depth
          ~request_timeout:(ms 200.0)
          ~seed:(Int64.of_int (500 + depth))
          ()
      in
      Array.iter (fun r -> Replica.suppress_commit_votes r true) c.replicas;
      let client = make_client c ~dc:2 ~idx:100 in
      let served = ref 0 in
      for i = 1 to 6 do
        Client.submit client
          (Printf.sprintf "d%d-op%d" depth i)
          ~on_result:(fun _ -> incr served)
      done;
      Engine.run ~until:(ms 100.0) c.engine;
      Alcotest.(check int)
        (Printf.sprintf "depth %d: nothing executes without commits" depth)
        0
        (Replica.last_executed c.replicas.(0));
      Alcotest.(check bool)
        (Printf.sprintf "depth %d: >=3 slots concurrently open" depth)
        true
        (Replica.open_slot_count c.replicas.(0) >= 3
        && Replica.open_slot_count c.replicas.(1) >= 3);
      Array.iter (fun r -> Replica.suppress_commit_votes r false) c.replicas;
      Engine.run ~until:(Time.of_sec 15.0) c.engine;
      Alcotest.(check int)
        (Printf.sprintf "depth %d: all served after view change" depth)
        6 !served;
      Alcotest.(check bool)
        (Printf.sprintf "depth %d: moved past view 0" depth)
        true
        (Replica.view c.replicas.(1) >= 1);
      check_agreement c)
    [ 4; 8 ]

(* Sustained pipelined load must not grow state without bound: open
   slots stay inside the watermark window, and the state-transfer
   archive keeps only a few windows' worth of executed batches. *)
let test_pipeline_bounded_by_watermarks () =
  let window = 8 in
  let c =
    make_cluster ~batch_max:1 ~max_in_flight:8 ~checkpoint_interval:4
      ~watermark_window:window ~seed:77L ()
  in
  let client = make_client c ~dc:2 ~idx:100 in
  let served = ref 0 in
  let total = 80 in
  for i = 1 to total do
    Client.submit client (Printf.sprintf "op%d" i) ~on_result:(fun _ ->
        incr served)
  done;
  let max_open = ref 0 and max_archive = ref 0 in
  let rec sample () =
    Array.iter
      (fun r ->
        max_open := Stdlib.max !max_open (Replica.open_slot_count r);
        max_archive := Stdlib.max !max_archive (Replica.archive_size r))
      c.replicas;
    ignore (Engine.schedule c.engine ~after:(ms 1.0) sample)
  in
  sample ();
  Engine.run ~until:(Time.of_sec 30.0) c.engine;
  Alcotest.(check int) "all served" total !served;
  Alcotest.(check bool)
    (Printf.sprintf "pipeline filled (%d open slots at peak)" !max_open)
    true (!max_open >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "open slots (%d) bounded by the window" !max_open)
    true
    (!max_open <= window);
  Alcotest.(check bool)
    (Printf.sprintf "archive (%d) bounded" !max_archive)
    true
    (!max_archive <= 4 * window);
  Alcotest.(check bool) "watermark advanced under GC" true
    (Replica.low_watermark c.replicas.(0) >= total - window);
  check_agreement c

(* The point of the pipeline: with a dozen 100 KB batches waiting,
   depth 8 overlaps their three-phase rounds and finishes well before
   the stop-and-wait depth-1 primary in simulated time. *)
let test_pipeline_overlaps_rounds () =
  let run depth =
    let c = make_cluster ~batch_max:1 ~max_in_flight:depth ~seed:91L () in
    let client = make_client c ~dc:2 ~idx:100 in
    let served = ref 0 in
    let done_at = ref Time.zero in
    for i = 1 to 12 do
      Client.submit client
        (Printf.sprintf "%06d-" i ^ String.make 100_000 'x')
        ~on_result:(fun _ ->
          incr served;
          done_at := Engine.now c.engine)
    done;
    Engine.run ~until:(Time.of_sec 10.0) c.engine;
    Alcotest.(check int) (Printf.sprintf "depth %d: all served" depth) 12 !served;
    check_agreement c;
    Time.to_ms !done_at
  in
  let t1 = run 1 in
  let t8 = run 8 in
  Alcotest.(check bool)
    (Printf.sprintf "depth 8 (%.1f ms) well under depth 1 (%.1f ms)" t8 t1)
    true
    (t8 < 0.8 *. t1)

(* Differential pinning: the pipeline must change scheduling, never
   results. Requests are all submitted up front, so their arrival order
   at the primary is depth-independent (per-sender FIFO NICs), and the
   flattened stream of executed requests at depth d must equal depth 1
   exactly — batch boundaries may differ (adaptive batch cut), the
   per-request execution order may not. *)
let pipeline_differential =
  QCheck.Test.make ~name:"depth-N execution stream = depth-1" ~count:25
    QCheck.(
      quad (int_range 2 8) (int_range 1 30) (int_range 1 3) (int_range 0 999))
    (fun (depth, n_ops, batch_max, seed) ->
      let run max_in_flight =
        let c =
          make_cluster ~batch_max ~max_in_flight
            ~seed:(Int64.of_int (3000 + seed))
            ()
        in
        let stream = ref [] in
        Replica.set_on_executed c.replicas.(1) (fun ~seq:_ batch ->
            List.iter (fun r -> stream := r.Msg.op :: !stream) batch);
        let client = make_client c ~dc:2 ~idx:100 in
        let served = ref 0 in
        for i = 1 to n_ops do
          Client.submit client (Printf.sprintf "op-%d" i) ~on_result:(fun _ ->
              incr served)
        done;
        Engine.run ~until:(Time.of_sec 20.0) c.engine;
        if !served <> n_ops then
          QCheck.Test.fail_reportf "depth %d: served %d of %d" max_in_flight
            !served n_ops;
        check_agreement c;
        List.rev !stream
      in
      run 1 = run depth)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "pbft.msg",
      [
        tc "body roundtrip" test_msg_roundtrip;
        tc "envelope verification" test_envelope_verification;
        tc "new view derived from its certificate" test_new_view_certificate;
        QCheck_alcotest.to_alcotest qcheck_body_size;
        QCheck_alcotest.to_alcotest qcheck_envelope_matches_reference;
        tc "config validation" test_config_validation;
        tc "identity memo keeps provisioning order" test_identity_memo;
        tc "broadcast seals and encodes once" test_broadcast_seals_and_encodes_once;
      ] );
    ( "pbft.normal",
      [
        tc "normal case commit" test_normal_case_commit;
        tc "exec chains agree" test_exec_chains_agree;
        tc "batching groups requests" test_batching_groups_requests;
        tc "local commit ~1ms" test_local_commit_latency_about_1ms;
        tc "n=7 cluster" test_larger_cluster_n7;
        tc "decoded memo shared until the n-th execution"
          test_decoded_memo_shared_until_last_execution;
      ] );
    ( "pbft.faults",
      [
        tc "backup crash tolerated" test_backup_crash_tolerated;
        tc "two crashes stall (f=1)" test_two_crashes_stall;
        tc "byzantine silent in commit phase" test_byzantine_silent_commit_phase;
        tc "primary crash triggers view change" test_primary_crash_view_change;
        tc "view change preserves committed" test_view_change_preserves_committed;
        tc "verification routine blocks invalid ops" test_verification_routine_blocks_invalid;
        tc "pre-rejected request never answers (known hole, item 20)"
          test_pre_rejected_never_answers_known_hole;
        tc "request dropped at the batch cut keeps the view" test_cut_drop_keeps_view;
        tc "equivocating primary cannot diverge state" test_equivocating_primary_no_divergence;
        tc "checkpoint garbage collection" test_checkpoint_garbage_collection;
        tc "randomized safety under faults" test_safety_under_faults_randomized;
      ] );
    ( "pbft.pipeline",
      [
        tc "view change carries pipelined prepared slots"
          test_view_change_with_pipelined_slots;
        tc "bounded by watermark window" test_pipeline_bounded_by_watermarks;
        tc "overlapping rounds beat stop-and-wait" test_pipeline_overlaps_rounds;
        QCheck_alcotest.to_alcotest pipeline_differential;
      ] );
    ( "pbft.geo",
      [ tc "flat geo PBFT latency" test_geo_pbft_latency ] );
  ]
