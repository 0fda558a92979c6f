open Bp_sim

let log = Logs.Src.create "bp.net" ~doc:"Blockplane transport"

module Log = (val Logs.src_log log : Logs.LOG)

module Int_map = Map.Make (Int)

type packet =
  | Unreliable of { tag : string; payload : string }
  | Data of { seq : int; tag : string; payload : string }
  | Ack of { next_expected : int }

let encode_packet_into e p =
  match p with
  | Unreliable { tag; payload } ->
      Bp_codec.Wire.u8 e 0;
      Bp_codec.Wire.string e tag;
      Bp_codec.Wire.string e payload
  | Data { seq; tag; payload } ->
      Bp_codec.Wire.u8 e 1;
      Bp_codec.Wire.varint e seq;
      Bp_codec.Wire.string e tag;
      Bp_codec.Wire.string e payload
  | Ack { next_expected } ->
      Bp_codec.Wire.u8 e 2;
      Bp_codec.Wire.varint e next_expected

let packet_reader d =
  match Bp_codec.Wire.read_u8 d with
  | 0 ->
      let tag = Bp_codec.Wire.read_string d in
      let payload = Bp_codec.Wire.read_string d in
      Unreliable { tag; payload }
  | 1 ->
      let seq = Bp_codec.Wire.read_varint d in
      let tag = Bp_codec.Wire.read_string d in
      let payload = Bp_codec.Wire.read_string d in
      Data { seq; tag; payload }
  | 2 -> Ack { next_expected = Bp_codec.Wire.read_varint d }
  | n -> raise (Bp_codec.Wire.Malformed (Printf.sprintf "packet kind %d" n))

(* Decode-once fan-out: when one sealed frame is sent to many recipients,
   the sender attaches its own decoded view of the packet. A receiver may
   use it only after proving the hint describes the very bytes it was
   handed — physical identity, so a corrupted (rewritten) or unrelated
   payload can never borrow a hint. *)
type Network.hint += Decoded of { frame : string; packet : packet }

type peer = {
  remote : Addr.t;
  mutable next_send_seq : int;
  mutable unacked : (string * string) Int_map.t; (* seq -> tag, payload *)
  mutable retransmit : Engine.timer option;
  mutable next_recv_seq : int;
  mutable reorder_buffer : (string * string) Int_map.t;
  mutable send_times : Time.t Int_map.t; (* first-transmission times (Karn) *)
  mutable srtt : Time.t option; (* smoothed round-trip estimate *)
  mutable backoff : int; (* exponential RTO backoff (resets on a sample) *)
}

type t = {
  net : Network.t;
  engine : Engine.t;
  self : Addr.t;
  handlers : (string, src:Addr.t -> string -> unit) Hashtbl.t;
  peers : peer Addr.Tbl.t;
  scratch : Bp_codec.Wire.encoder; (* frame assembly (Frame.seal_with) *)
  mutable retransmissions : int;
  mutable discarded : int;
  mutable stopped : bool;
}

let addr t = t.self
let network t = t.net

let peer_of t remote =
  match Addr.Tbl.find_opt t.peers remote with
  | Some p -> p
  | None ->
      let p =
        {
          remote;
          next_send_seq = 0;
          unacked = Int_map.empty;
          retransmit = None;
          next_recv_seq = 0;
          reorder_buffer = Int_map.empty;
          send_times = Int_map.empty;
          srtt = None;
          backoff = 0;
        }
      in
      Addr.Tbl.add t.peers remote p;
      p

(* Adaptive retransmission timeout: the static floor covers propagation,
   while the smoothed RTT sample absorbs NIC serialization of large
   payloads (a 2 MB batch ahead of the ack must not trigger a spurious
   retransmission storm). *)
let rto t p =
  let topo = Network.topology t.net in
  let rtt = Topology.rtt topo t.self.Addr.dc p.remote.Addr.dc in
  let static = Time.add (Time.scale rtt 2.5) (Time.of_ms 5.0) in
  let base =
    match p.srtt with
    | None -> static
    | Some srtt -> Time.max static (Time.add (Time.scale srtt 3.0) (Time.of_ms 2.0))
  in
  (* Exponential backoff escapes the Karn deadlock: without it, a segment
     whose transfer time exceeds the static RTO would be retransmitted
     forever and never yield an RTT sample. *)
  Time.scale base (Float.of_int (1 lsl Stdlib.min p.backoff 6))

(* The packet is serialized straight into the frame inside the endpoint's
   scratch encoder (Frame.seal_with): one exactly-sized string allocation
   per send, no intermediate payload copy — the 2 MB fig4 batches pay one
   blit instead of two. *)
let raw_send t ~dst packet =
  let frame =
    Bp_codec.Frame.seal_with t.scratch (fun e -> encode_packet_into e packet)
  in
  Network.send t.net ~src:t.self ~dst ~hint:(Decoded { frame; packet }) frame

let rec arm_retransmit t p =
  match p.retransmit with
  | Some _ -> ()
  | None ->
      if not t.stopped then
        let timer =
          Engine.schedule t.engine ~after:(rto t p) (fun () ->
              p.retransmit <- None;
              if not (Int_map.is_empty p.unacked) then begin
                p.backoff <- p.backoff + 1;
                Int_map.iter
                  (fun seq (tag, payload) ->
                    t.retransmissions <- t.retransmissions + 1;
                    (* Karn: retransmitted segments never produce RTT
                       samples. *)
                    p.send_times <- Int_map.remove seq p.send_times;
                    raw_send t ~dst:p.remote (Data { seq; tag; payload }))
                  p.unacked;
                arm_retransmit t p
              end)
        in
        p.retransmit <- Some timer

let dispatch t ~src ~tag payload =
  match Hashtbl.find_opt t.handlers tag with
  | Some h -> h ~src payload
  | None ->
      Log.debug (fun m ->
          m "%s: no handler for tag %S (from %s)" (Addr.to_string t.self) tag
            (Addr.to_string src))

let handle_data t p ~src ~seq ~tag payload =
  if seq < p.next_recv_seq then
    (* Duplicate of something already delivered: just re-ack. *)
    raw_send t ~dst:src (Ack { next_expected = p.next_recv_seq })
  else begin
    if not (Int_map.mem seq p.reorder_buffer) then
      p.reorder_buffer <- Int_map.add seq (tag, payload) p.reorder_buffer;
    (* Drain any in-order prefix. *)
    let rec drain () =
      match Int_map.find_opt p.next_recv_seq p.reorder_buffer with
      | Some (tag, payload) ->
          p.reorder_buffer <- Int_map.remove p.next_recv_seq p.reorder_buffer;
          p.next_recv_seq <- p.next_recv_seq + 1;
          dispatch t ~src ~tag payload;
          drain ()
      | None -> ()
    in
    drain ();
    raw_send t ~dst:src (Ack { next_expected = p.next_recv_seq })
  end

(* [split_below k m] = (bindings below [k], bindings at or above [k]),
   returning [m] itself when nothing lies below [k]. *)
let split_below k m =
  match Int_map.min_binding_opt m with
  | Some (lowest, _) when lowest < k ->
      let below, at, above = Int_map.split k m in
      (below, match at with Some v -> Int_map.add k v above | None -> above)
  | Some _ | None -> (Int_map.empty, m)

(* An ack costs what it acknowledges: only the acked prefix of the stream
   is visited, never the whole in-flight window. Stale and duplicate acks
   split off an empty prefix and change nothing. *)
let handle_ack t p ~next_expected =
  let acked_times, in_flight = split_below next_expected p.send_times in
  (* RTT samples from first-transmission times of newly acked segments,
     folded in ascending sequence order. *)
  let now = Engine.now t.engine in
  Int_map.iter
    (fun _ sent_at ->
      let sample = Time.diff now sent_at in
      let smoothed =
        match p.srtt with
        | None -> sample
        | Some srtt ->
            Time.of_ns (((7 * Time.to_ns srtt) + Time.to_ns sample) / 8)
      in
      p.srtt <- Some smoothed;
      p.backoff <- 0)
    acked_times;
  p.send_times <- in_flight;
  p.unacked <- snd (split_below next_expected p.unacked)
(* The retransmit timer stays armed; it self-disarms when it finds the
   unacked map empty. *)

let handle_packet t ~src packet =
  match packet with
  | Unreliable { tag; payload } -> dispatch t ~src ~tag payload
  | Data { seq; tag; payload } ->
      handle_data t (peer_of t src) ~src ~seq ~tag payload
  | Ack { next_expected } -> handle_ack t (peer_of t src) ~next_expected

let on_frame t ~src ~hint frame =
  match hint with
  | Some (Decoded h) when h.frame == frame ->
      (* The hint describes these exact bytes (physical identity), so the
         checksum and the re-decode are provably redundant. Corrupted
         deliveries never take this path: fault injection rewrites the
         payload string and drops the hint. *)
      handle_packet t ~src h.packet
  | _ -> (
      (* Zero-copy slow path: validate the checksum in place, then decode
         the packet from a window of the frame — no payload-sized
         [String.sub] before the fields are read. *)
      match Bp_codec.Frame.unseal_sub frame ~off:0 with
      | Error (`Corrupt | `Malformed) -> t.discarded <- t.discarded + 1
      | Ok (off, len) ->
          if off + len <> String.length frame then t.discarded <- t.discarded + 1
          else (
            match Bp_codec.Wire.decode_sub frame ~off ~len packet_reader with
            | Error _ -> t.discarded <- t.discarded + 1
            | Ok packet -> handle_packet t ~src packet))

let create net self =
  let t =
    {
      net;
      engine = Network.engine net;
      self;
      handlers = Hashtbl.create 8;
      peers = Addr.Tbl.create 16;
      scratch = Bp_codec.Wire.encoder ~size_hint:512 ();
      retransmissions = 0;
      discarded = 0;
      stopped = false;
    }
  in
  Network.register net self (fun ~src ~hint frame -> on_frame t ~src ~hint frame);
  t

let set_handler t ~tag handler = Hashtbl.replace t.handlers tag handler
let clear_handler t ~tag = Hashtbl.remove t.handlers tag

(* Loop-back: deliver asynchronously (keeping run-to-completion event
   semantics) without touching the network. *)
let loopback t ~tag payload =
  ignore
    (Engine.schedule t.engine ~after:Time.zero (fun () ->
         dispatch t ~src:t.self ~tag payload))

(* Register [seq] on the peer's reliable stream (send_times must be
   stamped before the packet departs so Karn's sample is conservative). *)
let reserve_seq t p ~tag payload =
  let seq = p.next_send_seq in
  p.next_send_seq <- seq + 1;
  p.unacked <- Int_map.add seq (tag, payload) p.unacked;
  p.send_times <- Int_map.add seq (Engine.now t.engine) p.send_times;
  seq

let send t ?(reliable = true) ~dst ~tag payload =
  if Addr.equal dst t.self then loopback t ~tag payload
  else if not reliable then raw_send t ~dst (Unreliable { tag; payload })
  else begin
    let p = peer_of t dst in
    let seq = reserve_seq t p ~tag payload in
    raw_send t ~dst (Data { seq; tag; payload });
    arm_retransmit t p
  end

(* Encode-once broadcast. The (tag, payload) suffix — all of the message
   body except the per-peer stream header — is serialized exactly once
   per broadcast; each destination then costs one small header write plus
   a blit into the frame, instead of a full re-serialization. Unreliable
   broadcasts share the entire sealed frame. Wire format and send order
   are identical to a loop of {!send}, so virtual-time results do not
   change. *)
let broadcast t ?(reliable = true) ~dsts ~tag payload =
  if Array.length dsts > 0 then begin
    let suffix =
      Bp_codec.Wire.encode
        ~size_hint:(String.length tag + String.length payload + 12)
        (fun e ->
          Bp_codec.Wire.string e tag;
          Bp_codec.Wire.string e payload)
    in
    (* One payload-sized CRC pass per broadcast: per-destination frames
       stitch the precomputed suffix checksum on with [Crc32.combine]
       instead of re-checksumming megabytes per destination. *)
    let suffix_crc = Bp_crypto.Crc32.string suffix in
    (* Per-destination assembly reuses the endpoint's scratch encoder and
       does not re-walk the message (not counted by Wire.encode_calls). *)
    let assemble header_kind seq =
      Bp_codec.Frame.seal_with_suffix t.scratch ~suffix ~suffix_crc (fun e ->
          Bp_codec.Wire.u8 e header_kind;
          match seq with
          | Some s -> Bp_codec.Wire.varint e s
          | None -> ())
    in
    if not reliable then begin
      (* All recipients share one sealed frame and one decoded view. *)
      let shared = ref None in
      Array.iter
        (fun dst ->
          if Addr.equal dst t.self then loopback t ~tag payload
          else begin
            let frame, hint =
              match !shared with
              | Some fh -> fh
              | None ->
                  let frame = assemble 0 None in
                  let fh =
                    (frame, Decoded { frame; packet = Unreliable { tag; payload } })
                  in
                  shared := Some fh;
                  fh
            in
            Network.send t.net ~src:t.self ~dst ~hint frame
          end)
        dsts
    end
    else
      Array.iter
        (fun dst ->
          if Addr.equal dst t.self then loopback t ~tag payload
          else begin
            let p = peer_of t dst in
            let seq = reserve_seq t p ~tag payload in
            let frame = assemble 1 (Some seq) in
            Network.send t.net ~src:t.self ~dst
              ~hint:(Decoded { frame; packet = Data { seq; tag; payload } })
              frame;
            arm_retransmit t p
          end)
        dsts
  end

let stop t =
  t.stopped <- true;
  Addr.Tbl.iter
    (fun _ p ->
      (match p.retransmit with Some timer -> Engine.cancel timer | None -> ());
      p.retransmit <- None)
    t.peers

let stats t = (t.retransmissions, t.discarded)
