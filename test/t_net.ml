open Bp_sim
open Bp_net

let ms = Time.of_ms
let node dc idx = Addr.make ~dc ~idx

let setup ?faults ?(seed = 5L) () =
  let e = Engine.create ~seed () in
  let net = Network.create e Topology.aws_paper ?faults () in
  (e, net)

let test_transport_basic_delivery () =
  let e, net = setup () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 0 1) in
  let got = ref [] in
  Transport.set_handler b ~tag:"app" (fun ~src payload ->
      got := (Addr.to_string src, payload) :: !got);
  Transport.send a ~dst:(Transport.addr b) ~tag:"app" "hello";
  Engine.run e;
  Alcotest.(check (list (pair string string))) "delivered" [ ("n0.0", "hello") ] !got

let test_transport_tag_multiplexing () =
  let e, net = setup () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 0 1) in
  let xs = ref [] and ys = ref [] in
  Transport.set_handler b ~tag:"x" (fun ~src:_ p -> xs := p :: !xs);
  Transport.set_handler b ~tag:"y" (fun ~src:_ p -> ys := p :: !ys);
  Transport.send a ~dst:(Transport.addr b) ~tag:"x" "1";
  Transport.send a ~dst:(Transport.addr b) ~tag:"y" "2";
  Transport.send a ~dst:(Transport.addr b) ~tag:"x" "3";
  Engine.run e;
  Alcotest.(check (list string)) "x stream" [ "1"; "3" ] (List.rev !xs);
  Alcotest.(check (list string)) "y stream" [ "2" ] (List.rev !ys)

let test_transport_loopback () =
  let e, net = setup () in
  let a = Transport.create net (node 0 0) in
  let got = ref 0 in
  Transport.set_handler a ~tag:"self" (fun ~src:_ _ -> incr got);
  Transport.send a ~dst:(Transport.addr a) ~tag:"self" "ping";
  Engine.run e;
  Alcotest.(check int) "self-delivery" 1 !got

let test_transport_exactly_once_under_loss () =
  let faults = { Network.no_faults with drop = 0.3 } in
  let e, net = setup ~faults () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 2 0) in
  let got = ref [] in
  Transport.set_handler b ~tag:"app" (fun ~src:_ p -> got := p :: !got);
  for i = 1 to 50 do
    Transport.send a ~dst:(Transport.addr b) ~tag:"app" (string_of_int i)
  done;
  Engine.run ~until:(Time.of_sec 30.0) e;
  Alcotest.(check (list string)) "all delivered exactly once, in order"
    (List.init 50 (fun i -> string_of_int (i + 1)))
    (List.rev !got)

let test_transport_order_under_duplication () =
  let faults = { Network.no_faults with duplicate = 0.5; drop = 0.2 } in
  let e, net = setup ~faults ~seed:11L () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 1 0) in
  let got = ref [] in
  Transport.set_handler b ~tag:"app" (fun ~src:_ p -> got := p :: !got);
  for i = 1 to 30 do
    Transport.send a ~dst:(Transport.addr b) ~tag:"app" (string_of_int i)
  done;
  Engine.run ~until:(Time.of_sec 30.0) e;
  Alcotest.(check (list string)) "exactly once in order"
    (List.init 30 (fun i -> string_of_int (i + 1)))
    (List.rev !got)

let test_transport_survives_corruption () =
  let faults = { Network.no_faults with corrupt = 0.3 } in
  let e, net = setup ~faults () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 1 0) in
  let got = ref [] in
  Transport.set_handler b ~tag:"app" (fun ~src:_ p -> got := p :: !got);
  for i = 1 to 30 do
    Transport.send a ~dst:(Transport.addr b) ~tag:"app" (string_of_int i)
  done;
  Engine.run ~until:(Time.of_sec 30.0) e;
  Alcotest.(check (list string)) "corruption recovered by retransmit"
    (List.init 30 (fun i -> string_of_int (i + 1)))
    (List.rev !got);
  let _, discarded = Transport.stats b in
  Alcotest.(check bool) "some frames discarded" true (discarded > 0)

(* Loss, duplication and jitter reorder data and acks alike, so the
   sender sees out-of-order, duplicate and stale acks on both the unicast
   and the broadcast path. Delivery must stay exactly-once and in order.
   The retransmission count and the arrival times are pinned: RTT
   samples and backoff resets, and through them every RTO, must not
   depend on how an ack is processed. *)
let test_transport_hostile_acks () =
  let faults =
    { Network.no_faults with drop = 0.2; duplicate = 0.3; jitter_ms = 40.0 }
  in
  let e, net = setup ~faults ~seed:23L () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 1 0) in
  let c = Transport.create net (node 2 0) in
  let got_b = ref [] and got_c = ref [] in
  let arrivals = ref 0 in
  let deliver got ~src:_ p =
    got := p :: !got;
    arrivals := !arrivals + Time.to_ns (Engine.now e)
  in
  Transport.set_handler b ~tag:"app" (deliver got_b);
  Transport.set_handler c ~tag:"app" (deliver got_c);
  let dsts = [| Transport.addr b; Transport.addr c |] in
  (* Four waves, 1.5 s apart: each starts on a drained stream, so its
     first RTO is derived afresh from the RTT estimate and the backoff
     left by the previous wave. *)
  for wave = 0 to 3 do
    ignore
      (Engine.schedule e ~after:(ms (1500.0 *. Float.of_int wave)) (fun () ->
           for i = 1 to 25 do
             let m = Printf.sprintf "%d.%d" wave i in
             if i mod 2 = 0 then Transport.broadcast a ~dsts ~tag:"app" m
             else Transport.send a ~dst:(Transport.addr b) ~tag:"app" m
           done))
  done;
  Engine.run ~until:(Time.of_sec 60.0) e;
  let expected ~all =
    List.concat_map
      (fun wave ->
        List.filter_map
          (fun i ->
            if all || i mod 2 = 0 then Some (Printf.sprintf "%d.%d" wave i)
            else None)
          (List.init 25 (fun i -> i + 1)))
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list string)) "b: exactly once, in order" (expected ~all:true)
    (List.rev !got_b);
  Alcotest.(check (list string)) "c: exactly once, in order" (expected ~all:false)
    (List.rev !got_c);
  let retrans, _ = Transport.stats a in
  Alcotest.(check int) "retransmissions pinned" 164 retrans;
  Alcotest.(check int) "arrival times pinned" 513264339917 !arrivals

(* The send window is a ring that starts with 16 slots. Bursts of 23
   and 40 segments in flight make it grow, and waves that start while
   earlier ones are still unacked move its head around the ring, so live
   segments wrap past the end of the array. Under loss every one of them
   is retransmitted from its slot, and delivery stays exactly-once and in
   order. *)
let test_transport_window_grows_and_wraps () =
  let faults = { Network.no_faults with drop = 0.25 } in
  let e, net = setup ~faults ~seed:31L () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 2 0) in
  let got = ref [] in
  Transport.set_handler b ~tag:"app" (fun ~src:_ p -> got := p :: !got);
  let sizes = [ 23; 5; 40; 11; 17; 3; 29 ] in
  List.iteri
    (fun wave n ->
      ignore
        (Engine.schedule e ~after:(ms (70.0 *. Float.of_int wave)) (fun () ->
             for i = 1 to n do
               Transport.send a ~dst:(Transport.addr b) ~tag:"app"
                 (Printf.sprintf "%d.%d" wave i)
             done)))
    sizes;
  Engine.run ~until:(Time.of_sec 60.0) e;
  let expected =
    List.concat
      (List.mapi
         (fun wave n -> List.init n (fun i -> Printf.sprintf "%d.%d" wave (i + 1)))
         sizes)
  in
  Alcotest.(check (list string)) "exactly once, in order" expected (List.rev !got);
  let retrans, _ = Transport.stats a in
  Alcotest.(check bool) "loss forced retransmissions" true (retrans > 0)

(* A raw endpoint speaking the transport's packet format: Data is kind 1
   (seq, tag, payload), Ack is kind 2 (next expected seq). *)
let data_frame ~seq ~tag payload =
  Bp_codec.Frame.seal
    (Bp_codec.Wire.encode (fun e ->
         Bp_codec.Wire.u8 e 1;
         Bp_codec.Wire.varint e seq;
         Bp_codec.Wire.string e tag;
         Bp_codec.Wire.string e payload))

let ack_frame next_expected =
  Bp_codec.Frame.seal
    (Bp_codec.Wire.encode (fun e ->
         Bp_codec.Wire.u8 e 2;
         Bp_codec.Wire.varint e next_expected))

let read_ack frame =
  match Bp_codec.Frame.unseal frame with
  | Error _ -> Alcotest.fail "corrupt frame"
  | Ok body -> (
      match
        Bp_codec.Wire.decode body (fun d ->
            let kind = Bp_codec.Wire.read_u8 d in
            (kind, Bp_codec.Wire.read_varint d))
      with
      | Ok (2, next_expected) -> next_expected
      | _ -> Alcotest.fail "not an ack")

(* Acks the sender must shrug off: one beyond everything it has sent
   (forged before any data arrives), then stale ones below what is
   already acknowledged, and duplicates. None may break the stream: later
   segments still get fresh seqs and, when the link turns lossy, are
   retransmitted until they are delivered, exactly once and in order. *)
let test_transport_odd_acks () =
  let e, net = setup ~seed:13L () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 1 0) in
  let got = ref [] in
  Transport.set_handler b ~tag:"app" (fun ~src:_ p -> got := p :: !got);
  let inject next_expected =
    Network.send net ~src:(Transport.addr b) ~dst:(Transport.addr a)
      (ack_frame next_expected)
  in
  let send_range lo hi =
    for i = lo to hi do
      Transport.send a ~dst:(Transport.addr b) ~tag:"app" (string_of_int i)
    done
  in
  send_range 0 4;
  inject 1000;
  Engine.run e;
  let retrans, _ = Transport.stats a in
  Alcotest.(check int) "lossless: nothing retransmitted" 0 retrans;
  Network.set_faults net { Network.no_faults with drop = 0.3 };
  send_range 5 14;
  List.iter inject [ 0; 3; 5; 5; 2 ];
  Engine.run ~until:(Time.of_sec 30.0) e;
  let retrans, _ = Transport.stats a in
  Alcotest.(check bool) "lossy: retransmitted" true (retrans > 0);
  Network.set_faults net Network.no_faults;
  send_range 15 17;
  Engine.run e;
  Alcotest.(check (list string)) "exactly once, in order"
    (List.init 18 string_of_int) (List.rev !got);
  Alcotest.(check int) "no timer left" 0 (Engine.pending e)

(* Segments that arrive ahead of a gap wait in the reorder buffer and are
   released, in order, when the gap fills; every arrival is acked with
   the next seq still missing, and a duplicate of a delivered segment is
   only re-acked. *)
let test_transport_out_of_order_arrival () =
  let e, net = setup () in
  let b = Transport.create net (node 0 1) in
  let raw = node 0 2 in
  let acks = ref [] in
  Network.register net raw (fun ~src:_ ~hint:_ frame -> acks := read_ack frame :: !acks);
  let got = ref [] in
  Transport.set_handler b ~tag:"app" (fun ~src:_ p -> got := p :: !got);
  List.iteri
    (fun i seq ->
      ignore
        (Engine.schedule e ~after:(ms (10.0 *. Float.of_int i)) (fun () ->
             Network.send net ~src:raw ~dst:(Transport.addr b)
               (data_frame ~seq ~tag:"app" (Printf.sprintf "m%d" seq)))))
    [ 2; 1; 4; 0; 1; 3; 5; 4 ];
  Engine.run e;
  Alcotest.(check (list string)) "delivered in seq order, once"
    [ "m0"; "m1"; "m2"; "m3"; "m4"; "m5" ]
    (List.rev !got);
  Alcotest.(check (list int)) "each arrival acks the first missing seq"
    [ 0; 0; 0; 3; 3; 5; 6; 6 ] (List.rev !acks)

let test_transport_unreliable_lossy () =
  let faults = { Network.no_faults with drop = 1.0 } in
  let e, net = setup ~faults () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 0 1) in
  let got = ref 0 in
  Transport.set_handler b ~tag:"app" (fun ~src:_ _ -> incr got);
  Transport.send a ~reliable:false ~dst:(Transport.addr b) ~tag:"app" "x";
  (* Unreliable + total loss: nothing arrives and nothing retransmits, so
     the simulation drains quickly. *)
  Engine.run ~until:(Time.of_sec 5.0) e;
  Alcotest.(check int) "lost" 0 !got;
  let retrans, _ = Transport.stats a in
  Alcotest.(check int) "no retransmissions" 0 retrans

let test_transport_bidirectional () =
  let e, net = setup () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 1 0) in
  let got_a = ref [] and got_b = ref [] in
  Transport.set_handler a ~tag:"app" (fun ~src:_ p -> got_a := p :: !got_a);
  Transport.set_handler b ~tag:"app" (fun ~src:_ p ->
      got_b := p :: !got_b;
      Transport.send b ~dst:(Transport.addr a) ~tag:"app" ("re:" ^ p));
  Transport.send a ~dst:(Transport.addr b) ~tag:"app" "ping";
  Engine.run ~until:(Time.of_sec 5.0) e;
  Alcotest.(check (list string)) "request" [ "ping" ] !got_b;
  Alcotest.(check (list string)) "response" [ "re:ping" ] !got_a

let test_transport_many_peers () =
  let e, net = setup () in
  let hub = Transport.create net (node 0 0) in
  let spokes = List.init 6 (fun i -> Transport.create net (node (i mod 4) (i + 1))) in
  let got = ref 0 in
  List.iter
    (fun s -> Transport.set_handler s ~tag:"bcast" (fun ~src:_ _ -> incr got))
    spokes;
  List.iter
    (fun s -> Transport.send hub ~dst:(Transport.addr s) ~tag:"bcast" "m")
    spokes;
  Engine.run ~until:(Time.of_sec 5.0) e;
  Alcotest.(check int) "all spokes" 6 !got

let test_heartbeat_suspects_crashed_peer () =
  let e, net = setup () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 1 0) in
  Heartbeat.serve b;
  let suspected = ref [] and restored = ref [] in
  let hb =
    Heartbeat.create a
      ~peers:[ node 1 0 ]
      ~period:(ms 50.0) ~timeout:(ms 200.0)
      ~on_suspect:(fun p -> suspected := (Addr.to_string p, Time.to_ms (Engine.now e)) :: !suspected)
      ~on_restore:(fun p -> restored := Addr.to_string p :: !restored)
      ()
  in
  Engine.run ~until:(Time.of_sec 1.0) e;
  Alcotest.(check (list (pair string (float 1e9)))) "alive peer not suspected" [] !suspected;
  Network.crash net (node 1 0);
  Engine.run ~until:(Time.of_sec 2.0) e;
  Alcotest.(check int) "suspected once" 1 (List.length !suspected);
  Alcotest.(check bool) "flag" true (Heartbeat.suspected hb (node 1 0));
  Network.recover net (node 1 0);
  Engine.run ~until:(Time.of_sec 3.0) e;
  Alcotest.(check (list string)) "restored" [ "n1.0" ] !restored;
  Alcotest.(check bool) "flag cleared" false (Heartbeat.suspected hb (node 1 0));
  Heartbeat.stop hb;
  Engine.run ~until:(Time.of_sec 3.5) e

let test_heartbeat_stop_cancels () =
  let e, net = setup () in
  let a = Transport.create net (node 0 0) in
  let hb =
    Heartbeat.create a ~peers:[] ~period:(ms 10.0) ~timeout:(ms 50.0)
      ~on_suspect:(fun _ -> Alcotest.fail "no peers, no suspicion")
      ()
  in
  Heartbeat.stop hb;
  Engine.run ~until:(Time.of_sec 1.0) e;
  Alcotest.(check int) "no live timers" 0 (Engine.pending e)

(* The encode-once property: a broadcast serializes the (tag, payload)
   suffix exactly once, so the Wire.encode_calls delta must not depend on
   the number of destinations. *)
let broadcast_encode_delta ~reliable ~fanout =
  let e, net = setup () in
  let src = Transport.create net (node 0 0) in
  let dsts =
    Array.init fanout (fun i ->
        let t = Transport.create net (node (i mod 4) (1 + (i / 4))) in
        Transport.set_handler t ~tag:"bc" (fun ~src:_ _ -> ());
        Transport.addr t)
  in
  let before = Bp_codec.Wire.encode_calls () in
  Transport.broadcast src ~reliable ~dsts ~tag:"bc" (String.make 256 'x');
  let delta = Bp_codec.Wire.encode_calls () - before in
  Engine.run ~until:(Time.of_sec 5.0) e;
  delta

let test_broadcast_encodes_once () =
  let d2 = broadcast_encode_delta ~reliable:true ~fanout:2 in
  let d6 = broadcast_encode_delta ~reliable:true ~fanout:6 in
  Alcotest.(check int) "reliable: one serialization per broadcast" 1 d2;
  Alcotest.(check int) "reliable: fan-out does not re-encode" d2 d6;
  let u2 = broadcast_encode_delta ~reliable:false ~fanout:2 in
  let u6 = broadcast_encode_delta ~reliable:false ~fanout:6 in
  Alcotest.(check int) "unreliable: one serialization per broadcast" 1 u2;
  Alcotest.(check int) "unreliable: fan-out does not re-encode" u2 u6

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "net.transport",
      [
        tc "basic delivery" test_transport_basic_delivery;
        tc "tag multiplexing" test_transport_tag_multiplexing;
        tc "loopback" test_transport_loopback;
        tc "exactly-once under loss" test_transport_exactly_once_under_loss;
        tc "order under duplication" test_transport_order_under_duplication;
        tc "survives corruption" test_transport_survives_corruption;
        tc "hostile acks: exactly-once, pinned RTOs" test_transport_hostile_acks;
        tc "unreliable mode is lossy" test_transport_unreliable_lossy;
        tc "bidirectional" test_transport_bidirectional;
        tc "many peers" test_transport_many_peers;
        tc "broadcast encodes once" test_broadcast_encodes_once;
        tc "send window grows and wraps" test_transport_window_grows_and_wraps;
        tc "odd acks: beyond, stale, duplicate" test_transport_odd_acks;
        tc "out-of-order arrival is buffered" test_transport_out_of_order_arrival;
      ] );
    ( "net.heartbeat",
      [
        tc "suspects crashed peer" test_heartbeat_suspects_crashed_peer;
        tc "stop cancels timers" test_heartbeat_stop_cancels;
      ] );
  ]
