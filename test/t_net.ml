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
  Transport.set_handler b ~tag:"app" (fun ~src ~hint:_ payload ->
      got := (Addr.to_string src, payload) :: !got);
  Transport.send a ~dst:(Transport.addr b) ~tag:"app" "hello";
  Engine.run e;
  Alcotest.(check (list (pair string string))) "delivered" [ ("n0.0", "hello") ] !got

let test_transport_tag_multiplexing () =
  let e, net = setup () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 0 1) in
  let xs = ref [] and ys = ref [] in
  Transport.set_handler b ~tag:"x" (fun ~src:_ ~hint:_ p -> xs := p :: !xs);
  Transport.set_handler b ~tag:"y" (fun ~src:_ ~hint:_ p -> ys := p :: !ys);
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
  Transport.set_handler a ~tag:"self" (fun ~src:_ ~hint:_ _ -> incr got);
  Transport.send a ~dst:(Transport.addr a) ~tag:"self" "ping";
  Engine.run e;
  Alcotest.(check int) "self-delivery" 1 !got

let test_transport_exactly_once_under_loss () =
  let faults = { Network.no_faults with drop = 0.3 } in
  let e, net = setup ~faults () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 2 0) in
  let got = ref [] in
  Transport.set_handler b ~tag:"app" (fun ~src:_ ~hint:_ p -> got := p :: !got);
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
  Transport.set_handler b ~tag:"app" (fun ~src:_ ~hint:_ p -> got := p :: !got);
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
  Transport.set_handler b ~tag:"app" (fun ~src:_ ~hint:_ p -> got := p :: !got);
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
  let deliver got ~src:_ ~hint:_ p =
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
  Transport.set_handler b ~tag:"app" (fun ~src:_ ~hint:_ p -> got := p :: !got);
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
  Transport.set_handler b ~tag:"app" (fun ~src:_ ~hint:_ p -> got := p :: !got);
  let inject next_expected =
    Network.send net ~src:(Transport.addr b) ~dst:(Transport.addr a)
      (Network.frame_of_string (ack_frame next_expected))
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
  Network.register net raw (fun ~src:_ ~hint:_ frame ->
      acks := read_ack (Network.bytes frame) :: !acks);
  let got = ref [] in
  Transport.set_handler b ~tag:"app" (fun ~src:_ ~hint:_ p -> got := p :: !got);
  List.iteri
    (fun i seq ->
      ignore
        (Engine.schedule e ~after:(ms (10.0 *. Float.of_int i)) (fun () ->
             Network.send net ~src:raw ~dst:(Transport.addr b)
               (Network.frame_of_string
                  (data_frame ~seq ~tag:"app" (Printf.sprintf "m%d" seq))))))
    [ 2; 1; 4; 0; 1; 3; 5; 4 ];
  Engine.run e;
  Alcotest.(check (list string)) "delivered in seq order, once"
    [ "m0"; "m1"; "m2"; "m3"; "m4"; "m5" ]
    (List.rev !got);
  Alcotest.(check (list int)) "each arrival acks the first missing seq"
    [ 0; 0; 0; 3; 3; 5; 6; 6 ] (List.rev !acks)

type Network.hint += Note of string

(* A sender's hint reaches the handler only with the very payload it was
   sent with: unicast, broadcast, unreliable and loopback alike. A
   retransmitted segment, and one released later from the reorder
   buffer, carry the bytes alone. Segment 0 is refused at the source
   while the link is down, so segment 1 arrives first and waits in the
   buffer until the retransmission of segment 0 releases it. *)
let test_transport_hint_delivery () =
  let e, net = setup () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 1 0) in
  let got = ref [] in
  let record who ~src:_ ~hint p =
    let how =
      match hint with
      | Some (Note q) when q == p -> "hint"
      | Some _ -> "wrong hint"
      | None -> "bytes"
    in
    got := (who ^ ":" ^ p, how) :: !got
  in
  Transport.set_handler a ~tag:"app" (record "a");
  Transport.set_handler b ~tag:"app" (record "b");
  let send ?reliable p =
    Transport.send a ?reliable ~hint:(Note p) ~dst:(Transport.addr b) ~tag:"app" p
  in
  Network.set_link net 0 1 `Down;
  send "lost";
  Network.set_link net 0 1 `Up;
  send "early";
  Engine.run ~until:(Time.of_sec 2.0) e;
  let retransmissions, _ = Transport.stats a in
  Alcotest.(check bool) "segment 0 retransmitted" true (retransmissions > 0);
  send "in order";
  let fanout = "fanout" in
  Transport.broadcast a ~hint:(Note fanout)
    ~dsts:[| Transport.addr b; Transport.addr a |]
    ~tag:"app" fanout;
  send ~reliable:false "datagram";
  let gossip = "gossip" in
  Transport.broadcast a ~reliable:false ~hint:(Note gossip)
    ~dsts:[| Transport.addr b |] ~tag:"app" gossip;
  Transport.send a ~hint:(Note "other") ~dst:(Transport.addr b) ~tag:"app"
    "not other";
  Engine.run ~until:(Time.of_sec 4.0) e;
  Alcotest.(check (list (pair string string)))
    "hints ride with their own payload only"
    [
      ("b:lost", "bytes");
      ("b:early", "bytes");
      ("a:fanout", "hint");
      ("b:in order", "hint");
      ("b:fanout", "hint");
      ("b:datagram", "hint");
      ("b:gossip", "hint");
      ("b:not other", "wrong hint");
    ]
    (List.rev !got)

let test_transport_unreliable_lossy () =
  let faults = { Network.no_faults with drop = 1.0 } in
  let e, net = setup ~faults () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 0 1) in
  let got = ref 0 in
  Transport.set_handler b ~tag:"app" (fun ~src:_ ~hint:_ _ -> incr got);
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
  Transport.set_handler a ~tag:"app" (fun ~src:_ ~hint:_ p -> got_a := p :: !got_a);
  Transport.set_handler b ~tag:"app" (fun ~src:_ ~hint:_ p ->
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
    (fun s -> Transport.set_handler s ~tag:"bcast" (fun ~src:_ ~hint:_ _ -> incr got))
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
        Transport.set_handler t ~tag:"bc" (fun ~src:_ ~hint:_ _ -> ());
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

(* ---------- virtual frames ---------- *)

(* A frame is accounted by its length and built only when read. Against
   the eager assembly the transport used before ([Frame_ref]), on every
   packet kind, with tags and payloads across the 1- and 2-byte varint
   length boundaries and up to 64 KiB, and seqs up to 2^20: the built
   bytes must equal the oracle's, and the accounted length their length.
   Data and unreliable packets are checked on the unicast path and on
   the broadcast path (the shared suffix). *)
let frame_sizes = [ 0; 1; 127; 128; 16384; 65536 ]
let frame_seqs = [ 0; 127; 128; 1 lsl 20 ]

let packet_gen =
  QCheck.Gen.(
    let text = oneofl frame_sizes >>= fun n -> string_size (return n) in
    oneof
      [
        map2 (fun tag payload -> Transport.Unreliable { tag; payload }) text text;
        map3
          (fun seq tag payload -> Transport.Data { seq; tag; payload })
          (oneofl frame_seqs) text text;
        map (fun next_expected -> Transport.Ack { next_expected }) (oneofl frame_seqs);
      ])

let print_packet = function
  | Transport.Unreliable { tag; payload } ->
      Printf.sprintf "Unreliable tag=%d payload=%d" (String.length tag)
        (String.length payload)
  | Transport.Data { seq; tag; payload } ->
      Printf.sprintf "Data seq=%d tag=%d payload=%d" seq (String.length tag)
        (String.length payload)
  | Transport.Ack { next_expected } -> Printf.sprintf "Ack %d" next_expected

let frame_oracle_test =
  let _, net = setup () in
  let t = Transport.create net (node 0 0) in
  let matches frame expected =
    Network.length frame = String.length expected
    && String.equal (Network.bytes frame) expected
  in
  QCheck.Test.make ~name:"virtual frames = eager assembly (bytes, length)"
    ~count:200
    (QCheck.make ~print:print_packet packet_gen)
    (fun packet ->
      let expected = Frame_ref.raw packet in
      matches (Transport.frame t packet) expected
      &&
      match packet with
      | Transport.Data { seq; tag; payload } ->
          matches (Transport.suffix_frames t ~tag payload ~seq:(Some seq)) expected
      | Transport.Unreliable { tag; payload } ->
          matches (Transport.suffix_frames t ~tag payload ~seq:None) expected
      | Transport.Ack _ -> true)

(* One broadcast builds every destination's frame from one frame maker
   over one encoded suffix, in the endpoint's one scratch encoder. Made
   for seqs whose varints take one to four bytes and for the unreliable
   frame, then read back in reverse order: each frame must still equal
   the oracle's, whatever the others left in the scratch encoder. *)
let test_broadcast_suffix_reused () =
  let _, net = setup () in
  let t = Transport.create net (node 0 0) in
  let tag = "bcast" and payload = String.init 300 (fun i -> Char.chr (i land 0xff)) in
  let frame_for = Transport.suffix_frames t ~tag payload in
  let made =
    List.map
      (fun seq ->
        let packet =
          match seq with
          | Some seq -> Transport.Data { seq; tag; payload }
          | None -> Transport.Unreliable { tag; payload }
        in
        (print_packet packet, Frame_ref.raw packet, frame_for ~seq))
      [ Some 0; Some 127; Some 128; Some 16383; Some 16384; Some ((1 lsl 28) - 1); None ]
  in
  List.iter
    (fun (label, expected, frame) ->
      Alcotest.(check int) (label ^ ": length") (String.length expected) (Network.length frame);
      Alcotest.(check string) (label ^ ": bytes") expected (Network.bytes frame))
    (List.rev made)

(* A broadcast frame's checksum is taken over the whole payload: a bit
   flipped in the seq header or anywhere in the shared suffix makes the
   frame unseal as [`Corrupt]. *)
let test_broadcast_crc_covers_suffix () =
  let _, net = setup () in
  let t = Transport.create net (node 0 0) in
  let frame =
    Network.bytes (Transport.suffix_frames t ~tag:"bcast" (String.make 200 'p') ~seq:(Some 300))
  in
  let check_unseal label frame want =
    let got =
      match Bp_codec.Frame.unseal frame with
      | Ok _ -> "ok"
      | Error `Corrupt -> "corrupt"
      | Error `Malformed -> "malformed"
    in
    Alcotest.(check string) label want got
  in
  check_unseal "intact" frame "ok";
  let header = Bp_codec.Frame.overhead in
  let suffix = header + 1 + Bp_codec.Wire.varint_size 300 in
  List.iter
    (fun (label, i) ->
      let b = Bytes.of_string frame in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      check_unseal label (Bytes.to_string b) "corrupt")
    [
      ("seq header", header + 1);
      ("suffix: tag", suffix + 1);
      ("suffix: payload", suffix + 100);
      ("suffix: last byte", String.length frame - 1);
    ]

(* Three endpoints under every fault at once, on unicast and broadcast,
   reliable and unreliable sends. The delivery log (receiver, source,
   tag, payload digest, arrival time), the transports' stats and the
   network's counters are pinned to the values the eager-frame transport
   produced: building bytes only on demand must not move one RNG draw,
   one corruption verdict or one retransmission. *)
let fault_scenario () =
  let faults =
    { Network.drop = 0.1; duplicate = 0.1; corrupt = 0.2; jitter_ms = 3.0 }
  in
  let e = Engine.create ~seed:29L () in
  let net = Network.create e Topology.aws_paper ~faults () in
  let ts = Array.map (Transport.create net) [| node 0 0; node 1 0; node 2 0 |] in
  let log = Buffer.create 4096 and deliveries = ref 0 in
  Array.iteri
    (fun i t ->
      List.iter
        (fun tag ->
          Transport.set_handler t ~tag (fun ~src ~hint:_ p ->
              incr deliveries;
              Buffer.add_string log
                (Printf.sprintf "%d<%s %s %s @%d\n" i (Addr.to_string src) tag
                   (Digest.to_hex (Digest.string p))
                   (Time.to_ns (Engine.now e)))))
        [ "app"; "bc"; "u"; "ubc" ])
    ts;
  let all = Array.map Transport.addr ts in
  for k = 0 to 59 do
    ignore
      (Engine.schedule e ~after:(ms (2.0 *. Float.of_int k)) (fun () ->
           let s = ts.(k mod 3) and d = all.((k + 1) mod 3) in
           let body = Printf.sprintf "m%d:%s" k (String.make (k * 97 mod 3000) 'p') in
           Transport.send s ~dst:d ~tag:"app" body;
           if k mod 5 = 0 then Transport.broadcast s ~dsts:all ~tag:"bc" body;
           if k mod 7 = 0 then Transport.send s ~reliable:false ~dst:d ~tag:"u" body;
           if k mod 11 = 0 then
             Transport.broadcast s ~reliable:false ~dsts:all ~tag:"ubc" body))
  done;
  Engine.run ~until:(Time.of_sec 120.0) e;
  (net, ts, Buffer.contents log, !deliveries)

let test_fault_regression () =
  let net, ts, log, deliveries = fault_scenario () in
  Alcotest.(check int) "deliveries" 121 deliveries;
  Alcotest.(check string) "delivery log digest" "31f6aae14bb2fa775b1a0486bf5d109f"
    (Digest.to_hex (Digest.string log));
  Alcotest.(check (list (pair int int)))
    "transport stats (retransmissions, discarded)"
    [ (53, 31); (56, 37); (39, 32) ]
    (Array.to_list (Array.map Transport.stats ts));
  let c = Network.counters net in
  Alcotest.(check (list int))
    "sent, delivered, dropped, dropped at source, corrupted, duplicated, bytes"
    [ 427; 420; 46; 0; 85; 39; 385072 ]
    Network.
      [
        c.sent;
        c.delivered;
        c.dropped;
        c.dropped_at_source;
        c.corrupted;
        c.duplicated;
        c.bytes_sent;
      ];
  (* Only the corrupt fault reads bytes here (every clean copy carries
     its hint); an unreliable broadcast's shared frame is built once
     however many of its copies are corrupted. *)
  Alcotest.(check bool) "materialized <= corrupted" true
    (c.Network.materialized > 0 && c.Network.materialized <= c.Network.corrupted)

(* With corruption the only fault and no shared frames, each corrupted
   send builds its frame's bytes once, and nothing else builds any. *)
let test_corrupt_only_materializes () =
  let faults = { Network.no_faults with corrupt = 0.25 } in
  let e, net = setup ~faults ~seed:17L () in
  let a = Transport.create net (node 0 0) in
  let b = Transport.create net (node 1 0) in
  let got = ref [] in
  Transport.set_handler b ~tag:"app" (fun ~src:_ ~hint:_ p -> got := p :: !got);
  for i = 1 to 40 do
    Transport.send a ~dst:(Transport.addr b) ~tag:"app" (string_of_int i)
  done;
  Engine.run ~until:(Time.of_sec 30.0) e;
  Alcotest.(check (list string)) "exactly once, in order"
    (List.init 40 (fun i -> string_of_int (i + 1)))
    (List.rev !got);
  let c = Network.counters net in
  Alcotest.(check bool) "some frames corrupted" true (c.Network.corrupted > 0);
  Alcotest.(check int) "materialized = corrupted" c.Network.corrupted
    c.Network.materialized

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
        tc "hints: own payload only, none after buffer or resend"
          test_transport_hint_delivery;
        tc "faults: pinned delivery, stats, counters" test_fault_regression;
        tc "corrupt only: materialized = corrupted" test_corrupt_only_materializes;
        QCheck_alcotest.to_alcotest frame_oracle_test;
        tc "broadcast: one suffix, every seq" test_broadcast_suffix_reused;
        tc "broadcast: checksum covers the suffix" test_broadcast_crc_covers_suffix;
      ] );
    ( "net.heartbeat",
      [
        tc "suspects crashed peer" test_heartbeat_suspects_crashed_peer;
        tc "stop cancels timers" test_heartbeat_stop_cancels;
      ] );
  ]
