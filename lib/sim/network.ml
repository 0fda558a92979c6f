type faults = {
  drop : float;
  duplicate : float;
  corrupt : float;
  jitter_ms : float;
}

let no_faults = { drop = 0.0; duplicate = 0.0; corrupt = 0.0; jitter_ms = 0.0 }

type counters = {
  sent : int;
  delivered : int;
  dropped : int;
  dropped_at_source : int;
  corrupted : int;
  duplicated : int;
  bytes_sent : int;
  materialized : int;
}

(* Delivery hints are an in-simulator optimization channel: a sender that
   already holds a decoded form of the frame attaches it to the send, and
   the receiver acts on it without reading the bytes. Hints ride outside
   the byte stream and are dropped whenever fault injection rewrites the
   bytes, so a hint always describes the frame it arrives with. *)
type hint = ..

(* A frame is its exact length plus its bytes on demand: [Pending] holds
   the builder and the network whose [materialized] counter its one run
   bumps, and turns into [Built] on first read. *)
type frame = { len : int; mutable state : frame_state }
and frame_state = Built of string | Pending of t * (unit -> string)

and node_state = {
  handler : src:Addr.t -> hint:hint option -> frame -> unit;
  mutable crashed : bool;
  mutable nic_busy_until : Time.t;
}

and t = {
  engine : Engine.t;
  topology : Topology.t;
  mutable faults : faults;
  nodes : node_state Addr.Grid.t; (* [nobody] where none is registered *)
  rng : Bp_util.Rng.t;
  down_links : bool array array; (* by DC pair, set in both directions *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable dropped_at_source : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable bytes_sent : int;
  mutable materialized : int;
  traffic : int array array; (* bytes by (src dc, dst dc) *)
  traffic_msgs : int array array; (* messages by (src dc, dst dc) *)
}

(* What the node table holds for an address nobody registered. It is
   crashed, so it neither sends nor receives; nothing may write to it. *)
let nobody =
  {
    handler = (fun ~src:_ ~hint:_ _ -> ());
    crashed = true;
    nic_busy_until = Time.zero;
  }

let frame t ~len build = { len; state = Pending (t, build) }
let frame_of_string s = { len = String.length s; state = Built s }
let length f = f.len

let bytes f =
  match f.state with
  | Built s -> s
  | Pending (t, build) ->
      let s = build () in
      if String.length s <> f.len then
        invalid_arg
          (Printf.sprintf "Network.bytes: builder made %d bytes, frame is %d"
             (String.length s) f.len);
      t.materialized <- t.materialized + 1;
      f.state <- Built s;
      s

let create engine topology ?(faults = no_faults) () =
  {
    engine;
    topology;
    faults;
    nodes = Addr.Grid.create ~absent:nobody;
    rng = Bp_util.Rng.split (Engine.rng engine);
    down_links =
      (let n = Topology.num_dcs topology in
       Array.make_matrix n n false);
    sent = 0;
    delivered = 0;
    dropped = 0;
    dropped_at_source = 0;
    corrupted = 0;
    duplicated = 0;
    bytes_sent = 0;
    materialized = 0;
    traffic =
      (let n = Topology.num_dcs topology in
       Array.make_matrix n n 0);
    traffic_msgs =
      (let n = Topology.num_dcs topology in
       Array.make_matrix n n 0);
  }

let engine t = t.engine
let topology t = t.topology
let set_faults t faults = t.faults <- faults

let register t addr handler =
  if Addr.Grid.mem t.nodes addr then
    invalid_arg (Printf.sprintf "Network.register: %s already registered" (Addr.to_string addr));
  Addr.Grid.set t.nodes addr { handler; crashed = false; nic_busy_until = Time.zero }

let is_crashed t addr = (Addr.Grid.get t.nodes addr).crashed

let crash t addr =
  if Addr.Grid.mem t.nodes addr then (Addr.Grid.get t.nodes addr).crashed <- true

let recover t addr =
  if Addr.Grid.mem t.nodes addr then (Addr.Grid.get t.nodes addr).crashed <- false

let crash_dc t dc = Addr.Grid.iter_dc t.nodes dc (fun n -> n.crashed <- true)
let recover_dc t dc = Addr.Grid.iter_dc t.nodes dc (fun n -> n.crashed <- false)

let set_link t a b state =
  let n = Array.length t.down_links in
  if a < 0 || a >= n || b < 0 || b >= n then
    invalid_arg (Printf.sprintf "Network.set_link: no datacenter pair (%d, %d)" a b);
  let down = match state with `Down -> true | `Up -> false in
  t.down_links.(a).(b) <- down;
  t.down_links.(b).(a) <- down

let link_down t a b = a <> b && t.down_links.(a).(b)

let flip_byte rng payload =
  if String.length payload = 0 then payload
  else begin
    let b = Bytes.of_string payload in
    let i = Bp_util.Rng.int rng (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Bp_util.Rng.int rng 8)));
    Bytes.unsafe_to_string b
  end

let deliver t ~src ~dst ~hint frame =
  let node = Addr.Grid.get t.nodes dst in
  if node.crashed then t.dropped <- t.dropped + 1
  else begin
    t.delivered <- t.delivered + 1;
    node.handler ~src ~hint frame
  end

(* The send never leaves the source NIC: it is neither offered traffic
   nor load on the link, so [sent]/[bytes_sent]/the traffic matrix must
   not see it — otherwise crashed or partitioned senders inflate the
   cost and locality accounting. *)
let drop_at_source t =
  t.dropped <- t.dropped + 1;
  t.dropped_at_source <- t.dropped_at_source + 1

(* Put a departed packet in flight, with its duplicate if the duplicate
   fault strikes. *)
let in_flight t ~src ~dst ~hint frame arrive =
  ignore
    (Engine.schedule_at t.engine arrive (fun () -> deliver t ~src ~dst ~hint frame));
  if Bp_util.Rng.bernoulli t.rng t.faults.duplicate then begin
    t.duplicated <- t.duplicated + 1;
    let again = Time.add arrive (Time.of_ms 0.1) in
    ignore
      (Engine.schedule_at t.engine again (fun () -> deliver t ~src ~dst ~hint frame))
  end

let send t ~src ~dst ?hint frame =
  let sender = Addr.Grid.get t.nodes src in
  if sender.crashed then drop_at_source t
  else if link_down t src.Addr.dc dst.Addr.dc then drop_at_source t
  else begin
    (* The packet actually departs: count it as offered traffic even
       if the drop fault loses it in flight below. *)
    let len = frame.len in
    t.sent <- t.sent + 1;
    t.bytes_sent <- t.bytes_sent + len;
    t.traffic.(src.Addr.dc).(dst.Addr.dc) <-
      t.traffic.(src.Addr.dc).(dst.Addr.dc) + len;
    t.traffic_msgs.(src.Addr.dc).(dst.Addr.dc) <-
      t.traffic_msgs.(src.Addr.dc).(dst.Addr.dc) + 1;
    let now = Engine.now t.engine in
    let serialization = Topology.transfer_time t.topology len in
    let depart = Time.add (Time.max now sender.nic_busy_until) serialization in
    sender.nic_busy_until <- depart;
    let propagation = Topology.one_way t.topology src.Addr.dc dst.Addr.dc in
    let jitter =
      if t.faults.jitter_ms > 0.0 then
        Time.of_ms (Bp_util.Rng.float t.rng t.faults.jitter_ms)
      else Time.zero
    in
    let arrive = Time.add (Time.add depart propagation) jitter in
    if Bp_util.Rng.bernoulli t.rng t.faults.drop then t.dropped <- t.dropped + 1
    else if Bp_util.Rng.bernoulli t.rng t.faults.corrupt then begin
      t.corrupted <- t.corrupted + 1;
      (* The only sender-side reader of the bytes: they are built here,
         before [flip_byte] draws. The bytes changed, so any decoded form
         of the original is a lie: the hint must not survive
         corruption. *)
      in_flight t ~src ~dst ~hint:None
        (frame_of_string (flip_byte t.rng (bytes frame)))
        arrive
    end
    else in_flight t ~src ~dst ~hint frame arrive
  end

let traffic_matrix t = Array.map Array.copy t.traffic
let message_matrix t = Array.map Array.copy t.traffic_msgs

let counters t =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped;
    dropped_at_source = t.dropped_at_source;
    corrupted = t.corrupted;
    duplicated = t.duplicated;
    bytes_sent = t.bytes_sent;
    materialized = t.materialized;
  }
