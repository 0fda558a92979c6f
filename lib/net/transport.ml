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

(* The sender's packet rides with its frame as a delivery hint, so the
   receiver neither builds nor checksums nor decodes the bytes. The network
   drops the hint from a corrupted copy, which then takes the checked
   slow path in [on_frame]. The caller's own hint for a Data or
   Unreliable payload rides along in the second field and reaches the
   handler with exactly that payload. *)
type Network.hint += Decoded of packet * Network.hint option

let packet_length = function
  | Unreliable { tag; payload } ->
      1 + Bp_codec.Wire.string_size tag + Bp_codec.Wire.string_size payload
  | Data { seq; tag; payload } ->
      1 + Bp_codec.Wire.varint_size seq + Bp_codec.Wire.string_size tag
      + Bp_codec.Wire.string_size payload
  | Ack { next_expected } -> 1 + Bp_codec.Wire.varint_size next_expected

(* The send side of a stream is a ring of the unacked segments: seqs
   [acked, next_send_seq), segment [seq] at index [seq land (capacity - 1)]
   of three parallel arrays whose length is a power of two, doubled when
   full. [first_sent] holds the first-transmission time in ns (Karn's
   rule), or [-1] once the segment has been retransmitted. *)
type peer = {
  remote : Addr.t;
  mutable next_send_seq : int;
  mutable acked : int; (* lowest unacked seq *)
  mutable seg_tag : string array;
  mutable seg_payload : string array;
  mutable first_sent : int array;
  mutable retransmit : Engine.timer option;
  mutable next_recv_seq : int;
  mutable reorder_buffer : (string * string) Int_map.t; (* out-of-order arrivals only *)
  mutable srtt : Time.t option; (* smoothed round-trip estimate *)
  mutable backoff : int; (* exponential RTO backoff (resets on a sample) *)
}

let initial_window = 16

(* Handler tags are looked up on every delivery: a string-keyed table
   compares with [String.equal], not polymorphic compare. *)
module Tag_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = {
  net : Network.t;
  engine : Engine.t;
  self : Addr.t;
  handlers : (src:Addr.t -> hint:Network.hint option -> string -> unit) Tag_tbl.t;
  peers : peer Addr.Tbl.t;
  scratch : Bp_codec.Wire.encoder; (* frame bytes, when built (Frame.seal_with) *)
  mutable retransmissions : int;
  mutable discarded : int;
}

let addr t = t.self
let network t = t.net

(* Reached with client addresses decoded from requests, so the table is
   a hash table, sized by how many peers there are, not by their
   addresses. *)
let peer_of t remote =
  match Addr.Tbl.find t.peers remote with
  | p -> p
  | exception Not_found ->
      let p =
        {
          remote;
          next_send_seq = 0;
          acked = 0;
          seg_tag = Array.make initial_window "";
          seg_payload = Array.make initial_window "";
          first_sent = Array.make initial_window (-1);
          retransmit = None;
          next_recv_seq = 0;
          reorder_buffer = Int_map.empty;
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
  Time.scale base (Float.of_int (1 lsl Int.min p.backoff 6))

(* The frame is accounted by its length, computed from the packet; its
   bytes (and their CRC) are built by [Frame.seal_with] in the endpoint's
   scratch encoder only if something reads them. *)
let frame t packet =
  Network.frame t.net
    ~len:(Bp_codec.Frame.overhead + packet_length packet)
    (fun () ->
      Bp_codec.Frame.seal_with t.scratch (fun e -> encode_packet_into e packet))

let raw_send t ?hint ~dst packet =
  Network.send t.net ~src:t.self ~dst ~hint:(Decoded (packet, hint)) (frame t packet)

(* Resend every unacked segment, in ascending seq order. The ring keeps
   payloads, not the caller's hints, so a retransmission reaches its
   handler with the bytes alone. *)
let retransmit_all t p =
  let mask = Array.length p.first_sent - 1 in
  for seq = p.acked to p.next_send_seq - 1 do
    let i = seq land mask in
    t.retransmissions <- t.retransmissions + 1;
    (* Karn: retransmitted segments never produce RTT samples. *)
    p.first_sent.(i) <- -1;
    raw_send t ~dst:p.remote
      (Data { seq; tag = p.seg_tag.(i); payload = p.seg_payload.(i) })
  done

let rec arm_retransmit t p =
  match p.retransmit with
  | Some _ -> ()
  | None ->
      let timer =
        Engine.schedule t.engine ~after:(rto t p) (fun () ->
            p.retransmit <- None;
            if p.acked < p.next_send_seq then begin
              p.backoff <- p.backoff + 1;
              retransmit_all t p;
              arm_retransmit t p
            end)
      in
      p.retransmit <- Some timer

let dispatch t ~src ~hint ~tag payload =
  match Tag_tbl.find t.handlers tag with
  | h -> h ~src ~hint payload
  | exception Not_found ->
      Log.debug (fun m ->
          m "%s: no handler for tag %S (from %s)" (Addr.to_string t.self) tag
            (Addr.to_string src))

(* Deliver the buffered segments that are now in order. The buffer keeps
   no hints: a released segment reaches its handler with the bytes
   alone. *)
let rec drain t p ~src =
  match Int_map.find_opt p.next_recv_seq p.reorder_buffer with
  | Some (tag, payload) ->
      p.reorder_buffer <- Int_map.remove p.next_recv_seq p.reorder_buffer;
      p.next_recv_seq <- p.next_recv_seq + 1;
      dispatch t ~src ~hint:None ~tag payload;
      drain t p ~src
  | None -> ()

(* The in-order segment, the common case, is delivered at once; only a
   segment that arrives ahead of a gap waits in [reorder_buffer]. *)
let handle_data t p ~src ~hint ~seq ~tag payload =
  if seq < p.next_recv_seq then
    (* Duplicate of something already delivered: just re-ack. *)
    raw_send t ~dst:src (Ack { next_expected = p.next_recv_seq })
  else begin
    if seq = p.next_recv_seq then begin
      p.next_recv_seq <- seq + 1;
      dispatch t ~src ~hint ~tag payload;
      drain t p ~src
    end
    else if not (Int_map.mem seq p.reorder_buffer) then
      p.reorder_buffer <- Int_map.add seq (tag, payload) p.reorder_buffer;
    raw_send t ~dst:src (Ack { next_expected = p.next_recv_seq })
  end

(* An ack costs what it acknowledges: only the acked prefix of the ring
   is visited, never the whole in-flight window. Stale and duplicate acks
   visit nothing, and an ack beyond [next_send_seq] acknowledges only
   what was sent. *)
let handle_ack t p ~next_expected =
  let upto = Int.min next_expected p.next_send_seq in
  let mask = Array.length p.first_sent - 1 in
  let now = Engine.now t.engine in
  (* RTT samples from first-transmission times of newly acked segments,
     folded in ascending sequence order. *)
  while p.acked < upto do
    let i = p.acked land mask in
    let sent_at = p.first_sent.(i) in
    if sent_at >= 0 then begin
      let sample = Time.diff now (Time.of_ns sent_at) in
      let smoothed =
        match p.srtt with
        | None -> sample
        | Some srtt ->
            Time.of_ns (((7 * Time.to_ns srtt) + Time.to_ns sample) / 8)
      in
      p.srtt <- Some smoothed;
      p.backoff <- 0
    end;
    (* Release the payload: a ring slot must not pin a large batch. *)
    p.seg_tag.(i) <- "";
    p.seg_payload.(i) <- "";
    p.acked <- p.acked + 1
  done
(* The retransmit timer stays armed; it self-disarms when it finds no
   segment unacked. *)

let handle_packet t ~src ~hint packet =
  match packet with
  | Unreliable { tag; payload } -> dispatch t ~src ~hint ~tag payload
  | Data { seq; tag; payload } ->
      handle_data t (peer_of t src) ~src ~hint ~seq ~tag payload
  | Ack { next_expected } -> handle_ack t (peer_of t src) ~next_expected

let on_frame t ~src ~hint frame =
  match hint with
  | Some (Decoded (packet, hint)) ->
      (* The hint came with this very send and the bytes were not
         rewritten (the network drops hints from corrupted copies), so
         the checksum and the decode are provably redundant. *)
      handle_packet t ~src ~hint packet
  | _ -> (
      (* Zero-copy slow path: validate the checksum in place, then decode
         the packet from a window of the frame — no payload-sized
         [String.sub] before the fields are read. *)
      let frame = Network.bytes frame in
      match Bp_codec.Frame.unseal_sub frame ~off:0 with
      | Error (`Corrupt | `Malformed) -> t.discarded <- t.discarded + 1
      | Ok (off, len) ->
          if off + len <> String.length frame then t.discarded <- t.discarded + 1
          else (
            match Bp_codec.Wire.decode_sub frame ~off ~len packet_reader with
            | Error _ -> t.discarded <- t.discarded + 1
            | Ok packet -> handle_packet t ~src ~hint:None packet))

let create net self =
  let t =
    {
      net;
      engine = Network.engine net;
      self;
      handlers = Tag_tbl.create 8;
      peers = Addr.Tbl.create 16;
      scratch = Bp_codec.Wire.encoder ~size_hint:512 ();
      retransmissions = 0;
      discarded = 0;
    }
  in
  Network.register net self (fun ~src ~hint frame -> on_frame t ~src ~hint frame);
  t

let set_handler t ~tag handler = Tag_tbl.replace t.handlers tag handler
let clear_handler t ~tag = Tag_tbl.remove t.handlers tag

(* Loop-back: deliver asynchronously (keeping run-to-completion event
   semantics) without touching the network. *)
let loopback t ~hint ~tag payload =
  ignore
    (Engine.schedule t.engine ~after:Time.zero (fun () ->
         dispatch t ~src:t.self ~hint ~tag payload))

(* Double the ring, keeping each unacked seq at its index under the new
   mask. *)
let grow_window p =
  let cap = 2 * Array.length p.first_sent in
  let tags = Array.make cap "" and payloads = Array.make cap "" in
  let sent = Array.make cap (-1) in
  let old_mask = Array.length p.first_sent - 1 in
  for seq = p.acked to p.next_send_seq - 1 do
    let i = seq land old_mask and j = seq land (cap - 1) in
    tags.(j) <- p.seg_tag.(i);
    payloads.(j) <- p.seg_payload.(i);
    sent.(j) <- p.first_sent.(i)
  done;
  p.seg_tag <- tags;
  p.seg_payload <- payloads;
  p.first_sent <- sent

(* Register [seq] on the peer's reliable stream (the first-send time must
   be stamped before the packet departs so Karn's sample is
   conservative). *)
let reserve_seq t p ~tag payload =
  if p.next_send_seq - p.acked = Array.length p.first_sent then grow_window p;
  let seq = p.next_send_seq in
  let i = seq land (Array.length p.first_sent - 1) in
  p.next_send_seq <- seq + 1;
  p.seg_tag.(i) <- tag;
  p.seg_payload.(i) <- payload;
  p.first_sent.(i) <- Time.to_ns (Engine.now t.engine);
  seq

let send t ?(reliable = true) ?hint ~dst ~tag payload =
  if Addr.equal dst t.self then loopback t ~hint ~tag payload
  else if not reliable then raw_send t ?hint ~dst (Unreliable { tag; payload })
  else begin
    let p = peer_of t dst in
    let seq = reserve_seq t p ~tag payload in
    raw_send t ?hint ~dst (Data { seq; tag; payload });
    arm_retransmit t p
  end

(* A broadcast's frames share the (tag, payload) suffix, serialized once
   per broadcast. Each destination's frame is accounted by its length:
   the packet kind, the seq when [seq] is given, and the suffix. A frame
   whose bytes are read is built like a unicast one, by [Frame.seal_with]
   over the header and the suffix, so the bytes are what [frame] would
   build for the same packet. *)
let suffix_frames t ~tag payload =
  let suffix =
    Bp_codec.Wire.encode
      ~size_hint:
        (Bp_codec.Wire.string_size tag + Bp_codec.Wire.string_size payload)
      (fun e ->
        Bp_codec.Wire.string e tag;
        Bp_codec.Wire.string e payload)
  in
  fun ~seq ->
    let header =
      match seq with Some s -> 1 + Bp_codec.Wire.varint_size s | None -> 1
    in
    Network.frame t.net
      ~len:(Bp_codec.Frame.overhead + header + String.length suffix)
      (fun () ->
        Bp_codec.Frame.seal_with t.scratch (fun e ->
            (match seq with
            | Some s ->
                Bp_codec.Wire.u8 e 1;
                Bp_codec.Wire.varint e s
            | None -> Bp_codec.Wire.u8 e 0);
            Bp_codec.Wire.fixed e suffix))

(* Encode-once broadcast: the message body is serialized exactly once
   ([suffix_frames]), whatever the fan-out. Unreliable broadcasts share
   one frame and one hint across destinations. Wire format and send
   order are identical to a loop of {!send}, so virtual-time results do
   not change. *)
let broadcast t ?(reliable = true) ?hint ~dsts ~tag payload =
  if Array.length dsts > 0 then begin
    let frame_for = suffix_frames t ~tag payload in
    if not reliable then begin
      (* All recipients share one frame and one hint. *)
      let shared = ref None in
      Array.iter
        (fun dst ->
          if Addr.equal dst t.self then loopback t ~hint ~tag payload
          else begin
            let frame, decoded =
              match !shared with
              | Some fh -> fh
              | None ->
                  let fh =
                    ( frame_for ~seq:None,
                      Decoded (Unreliable { tag; payload }, hint) )
                  in
                  shared := Some fh;
                  fh
            in
            Network.send t.net ~src:t.self ~dst ~hint:decoded frame
          end)
        dsts
    end
    else
      Array.iter
        (fun dst ->
          if Addr.equal dst t.self then loopback t ~hint ~tag payload
          else begin
            let p = peer_of t dst in
            let seq = reserve_seq t p ~tag payload in
            Network.send t.net ~src:t.self ~dst
              ~hint:(Decoded (Data { seq; tag; payload }, hint))
              (frame_for ~seq:(Some seq));
            arm_retransmit t p
          end)
        dsts
  end

let stats t = (t.retransmissions, t.discarded)
