(* The four benchmark workloads. Each builds fresh worlds through
   [Runner.fresh_world], drives them only through the public API
   ([Api.log_commit] / [Api.send] / [Api.on_receive] / [Api.receive],
   [Shard.submit]), and schedules its own arrival chain with
   [Engine.schedule], stepping the engine itself so every event can be
   counted and, when traced, timed.

   Open-loop arrivals are due in a fixed window of simulated time and each
   fires exactly at its due time, so an op's latency runs from when it was
   due and generator lateness is 0 by construction. The first 5% of every
   window (or of a closed loop's ops) is warm-up: excluded from every
   latency sample and counter, and charged to set-up time instead. *)

open Bp_sim
open Blockplane
module Runner = Bp_harness.Runner
module Loadgen = Bp_harness.Loadgen
module Stats = Bp_util.Stats

type kind = Sim | Host

type metric = { name : string; value : float; unit_ : string; kind : kind }

type result = {
  metrics : metric list;
  checks : (string * bool) list;
  attempted : int;
  failed : int;
}

type ctx = { p : Probe.t; seed : int; scale : float; setups : int }

let warmup = 0.05
let op_bytes = 1000
let now_ms engine = Time.to_ms (Engine.now engine)
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let pct s q = if Stats.is_empty s then Float.nan else Stats.percentile s q

let median xs =
  let s = Stats.create () in
  Stats.add_list s xs;
  Stats.median s

let world_seed ctx k = Int64.of_int ((ctx.seed * 1000) + k)

let payload ~size tag =
  let b = Bytes.make size 'x' in
  Bytes.blit_string tag 0 b 0 (Stdlib.min (String.length tag) size);
  Bytes.unsafe_to_string b

(* A world is set up [ctx.setups] times — built, then driven through its
   warm-up prefix, each time after [Gc.compact] — and the last one is
   kept, so set-up time is a median rather than one sample. [warm st]
   drives [st] to its warm-up boundary. Spans of discarded set-ups are
   dropped. *)
let prepare ctx ~build ~warm =
  let spans = ctx.p.Probe.spans in
  let rec go k times =
    ctx.p.Probe.spans <- spans;
    Gc.compact ();
    let c0 = Probe.host_s ctx.p in
    let st = build () in
    let ok = warm st in
    let times = (Probe.host_s ctx.p -. c0) :: times in
    if k >= ctx.setups then (st, median times, ok) else go (k + 1) times
  in
  go 1 []

(* Traced runs sample the summed request queues of the lead nodes every
   0.1 ms of simulated time until [stop ()]; returns the running mean. *)
let sampler (p : Probe.t) engine ~apis ~stop =
  let sum = ref 0.0 and n = ref 0 in
  let rec tick () =
    p.Probe.sampler_events <- p.Probe.sampler_events + 1;
    sum := !sum +. fi (List.fold_left (fun a api -> a + Api.queue_depth api) 0 apis);
    incr n;
    if not (stop ()) then ignore (Engine.schedule engine ~after:(Time.of_ms 0.1) tick)
  in
  if p.Probe.traced then ignore (Engine.schedule engine ~after:(Time.of_ms 0.1) tick);
  fun () -> ratio !sum (fi !n)

let participants dep = List.init (Deployment.n_participants dep) Fun.id
let apis_of dep = List.map (Deployment.api dep) (participants dep)

(* Step past the last completion until every node has executed the same
   log prefix, then check Lemma 1 ([Deployment.logs_agree]) and replica
   state agreement ([Deployment.app_digests_agree]) for every participant. *)
let settle_and_agree p (w : Runner.world) =
  let dep = w.Runner.dep in
  let len n = Bp_storage.Log_store.length (Unit_node.log n) in
  let lengths_equal () =
    List.for_all
      (fun q ->
        let nodes = Deployment.nodes_of dep q in
        Array.for_all (fun n -> len n = len nodes.(0)) nodes)
      (participants dep)
  in
  Probe.drive p w.Runner.engine
    ~limit:(Time.add (Engine.now w.Runner.engine) (Time.of_ms 2000.0))
    ~until:lengths_equal
  && List.for_all
       (fun q -> Deployment.logs_agree dep q && Deployment.app_digests_agree dep q)
       (participants dep)

(* Lead-node WAL bytes, read once at the end of a traced run. *)
let wal_bytes (p : Probe.t) dep =
  if not p.Probe.traced then 0.0
  else
    List.fold_left
      (fun a q -> a +. fi (String.length (Unit_node.wal_image (Deployment.node dep q 0))))
      0.0 (participants dep)

let occupancy apis =
  ratio (List.fold_left (fun a api -> a +. Api.pipeline_occupancy api) 0.0 apis)
    (fi (List.length apis))

(* ---------- open-loop phases (local-small rungs, shard-xs) ---------- *)

type open_world = {
  w : Runner.world;
  apis : Api.t list;
  gen : Loadgen.t;
  op :
    int ->
    client:int ->
    int * int * (on_done:(unit -> unit) -> on_failed:(unit -> unit) -> unit);
      (** arrival [i] of [client]: its latency lane, payload bytes, and
          the call that submits it *)
}

(* What a phase keeps once its world is gone; nothing here may reference
   the world, so each rung's world is freed before the next is built. *)
type stream = {
  window : float;
  warm : float;
  lat : Stats.t array;  (** post-warm-up latencies per lane *)
  mutable arrived : int;
  mutable measured : int;  (** post-warm-up arrivals *)
  mutable completed : int;
  mutable duplicates : int;
  mutable failures : int;
  mutable closed : bool;
  mutable last_done : float;
  mutable stall : float;
  mutable done_in_window : int;
  mutable bytes_in_window : float;
  mutable backlog_mid : int;
  mutable backlog_end : int;
}

type phase = {
  s : stream;
  setup_s : float;
  c : Probe.counters;  (** counter deltas over the measured part *)
  queue_depth : float;
  occupancy : float;
  wal : float;
  finished : bool;
  agreed : bool;
}

(* An open-loop arrival chain: each arrival schedules its successor
   before it fires, so the engine holds one pending arrival per chain and
   same-instant ties resolve arrival-first. Arrivals are due before
   [window]; [close] runs once the next one would not be. *)
let arrival_chain engine ~window ~gap ~fire ~close =
  let rec next () =
    let g = gap () in
    if now_ms engine +. g < window then
      ignore
        (Engine.schedule engine ~after:(Time.of_ms g) (fun () ->
             next ();
             fire ()))
    else close ()
  in
  next ()

(* Builds the world with [build], runs its window and returns the phase
   with [summarize]'s reading of the world taken before it is dropped. *)
let open_phase ctx ~lane_names ~window ~build ~summarize =
  let p = ctx.p in
  let make () =
    let ow = build () in
    let engine = ow.w.Runner.engine in
    let s =
      {
        window;
        warm = warmup *. window;
        lat = Array.map (fun _ -> Stats.create ()) lane_names;
        arrived = 0;
        measured = 0;
        completed = 0;
        duplicates = 0;
        failures = 0;
        closed = false;
        last_done = 0.0;
        stall = 0.0;
        done_in_window = 0;
        bytes_in_window = 0.0;
        backlog_mid = 0;
        backlog_end = 0;
      }
    in
    let probe_backlog at set =
      ignore (Engine.schedule engine ~after:(Time.of_ms at) (fun () -> set (s.arrived - s.completed)))
    in
    probe_backlog (window /. 2.0) (fun b -> s.backlog_mid <- b);
    probe_backlog window (fun b -> s.backlog_end <- b);
    let arrive () =
      let i = s.arrived and t0 = Engine.now engine in
      let measured = Time.to_ms t0 >= s.warm in
      s.arrived <- i + 1;
      if measured then s.measured <- s.measured + 1;
      let client = Loadgen.next_client ow.gen in
      let lane, bytes, submit = ow.op i ~client in
      let id = Probe.op_id p in
      let fired = ref false in
      let finish ~ok () =
        if !fired then s.duplicates <- s.duplicates + 1
        else begin
          fired := true;
          let t1 = Engine.now engine in
          let now = Time.to_ms t1 in
          if not ok then s.failures <- s.failures + 1;
          s.completed <- s.completed + 1;
          if now >= s.warm then
            s.stall <- Float.max s.stall (now -. Float.max s.last_done s.warm);
          s.last_done <- now;
          if now >= s.warm && now <= s.window then begin
            s.done_in_window <- s.done_in_window + 1;
            s.bytes_in_window <- s.bytes_in_window +. fi bytes
          end;
          if measured then Stats.add s.lat.(lane) (now -. Time.to_ms t0);
          Probe.span p ~name:lane_names.(lane) ~op:id ~lane t0 t1
        end
      in
      Probe.submit p (fun () ->
          submit ~on_done:(finish ~ok:true) ~on_failed:(finish ~ok:false))
    in
    arrival_chain engine ~window
      ~gap:(fun () -> Loadgen.next_gap_ms ow.gen)
      ~fire:arrive
      ~close:(fun () -> s.closed <- true);
    (ow, s)
  in
  let limit = Time.of_ms (window +. 60_000.0) in
  let (ow, s), setup_s, warmed =
    prepare ctx ~build:make ~warm:(fun (ow, s) ->
        Probe.drive p ow.w.Runner.engine ~limit ~until:(fun () -> s.measured > 0 || s.closed))
  in
  let net = ow.w.Runner.net and engine = ow.w.Runner.engine in
  let c0 = Probe.snapshot p ~net ~apis:ow.apis in
  let depth = sampler p engine ~apis:ow.apis ~stop:(fun () -> now_ms engine >= window) in
  let finished =
    warmed
    && Probe.drive p engine ~limit ~until:(fun () -> s.closed && s.completed >= s.arrived)
  in
  let c = Probe.sub (Probe.snapshot p ~net ~apis:ow.apis) c0 in
  let agreed = settle_and_agree p ow.w in
  ( {
      s;
      setup_s;
      c;
      queue_depth = depth ();
      occupancy = occupancy ow.apis;
      wal = wal_bytes p ow.w.Runner.dep;
      finished;
      agreed;
    },
    summarize ow )

(* Ops of a phase that did not complete exactly once and successfully. *)
let phase_failed ph = ph.s.arrived - ph.s.completed + ph.s.duplicates + ph.s.failures

(* One lane's latency samples across phases. *)
let pool lane phases =
  let s = Stats.create () in
  List.iter (fun ph -> Array.iter (Stats.add s) (Stats.samples ph.s.lat.(lane))) phases;
  s

(* ---------- metric assembly ---------- *)

let sim name unit_ value = { name; value; unit_; kind = Sim }
let host name unit_ value = { name; value; unit_; kind = Host }

(* End-to-end metrics every workload reports, in its own terms: [commit]
   is the latency to the op's commit where it is headed (the local log;
   the destination's log for geo-send; single-shard ops for shard-xs) and
   [deliver] the latency until its caller learns the final outcome (the
   commit itself for local ops, the daemon's ack for geo-send, every shard
   applied for a cross-shard transaction). *)
type e2e = {
  setup_s : float;
  commit : Stats.t;
  deliver : Stats.t;
  goodput : float;
  mbps : float;
  drain : float;
  stall : float;
  ops : float;  (** measured ops: the denominator of every per-op figure *)
  c : Probe.counters;
}

(* Host times are reported at the nominal reference speed (see
   [Probe.speed]); the raw values are per-layer metrics. *)
let e2e_metrics (p : Probe.t) e =
  let speed = Probe.speed p in
  [
    host "setup_s" "s" (e.setup_s *. speed);
    sim "commit_p50_ms" "ms" (pct e.commit 50.0);
    sim "commit_p99_ms" "ms" (pct e.commit 99.0);
    sim "commit_samples" "count" (fi (Stats.count e.commit));
    sim "deliver_p50_ms" "ms" (pct e.deliver 50.0);
    sim "deliver_p99_ms" "ms" (pct e.deliver 99.0);
    sim "deliver_samples" "count" (fi (Stats.count e.deliver));
    sim "goodput_rps" "1/s" e.goodput;
    sim "throughput_mbps" "MB/s" e.mbps;
    sim "drain_ms" "ms" e.drain;
    sim "stall_ms" "ms" e.stall;
    host "host_us_per_op" "us" (ratio (e.c.Probe.cpu_s *. 1e6) e.ops *. speed);
  ]

let layer_metrics (p : Probe.t) e =
  let c = e.c in
  let per x = ratio x e.ops in
  let step_ns = c.Probe.step_ns -. c.Probe.submit_ns in
  let timers =
    if p.Probe.traced then
      [
        host "engine.step_ns" "ns" (ratio step_ns c.Probe.steps);
        host "host.submit_us_per_op" "us" (per (c.Probe.submit_ns /. 1000.0));
        host "host.step_us_per_op" "us" (per (step_ns /. 1000.0));
        host "host.accounted_frac" "ratio" (ratio (c.Probe.step_ns /. 1e9) c.Probe.cpu_s);
      ]
    else []
  in
  [
    host "host.raw_setup_s" "s" e.setup_s;
    host "host.raw_us_per_op" "us" (per (c.Probe.cpu_s *. 1e6));
    host "host.reference_us" "us" (1e6 *. Probe.reference_nominal_s /. Probe.speed p);
    sim "engine.events_per_op" "count" (per (c.Probe.steps -. c.Probe.sampler_events));
    sim "network.msgs_per_op" "count" (per c.Probe.msgs);
    sim "network.bytes_per_op" "B" (per c.Probe.bytes);
    sim "network.wan_msgs_per_op" "count" (per c.Probe.wan_msgs);
    sim "network.wan_bytes_per_op" "B" (per c.Probe.wan_bytes);
    sim "network.dropped" "count" c.Probe.dropped;
    sim "wire.encode_calls_per_op" "count" (per c.Probe.encode_calls);
    sim "verify_cache.verifies_per_op" "count" (per c.Probe.verify_misses);
    sim "verify_cache.verify_hit_ratio" "ratio"
      (ratio c.Probe.verify_hits (c.Probe.verify_hits +. c.Probe.verify_misses));
    sim "verify_cache.digests_per_op" "count" (per c.Probe.digest_misses);
    sim "verify_cache.digest_hit_ratio" "ratio"
      (ratio c.Probe.digest_hits (c.Probe.digest_hits +. c.Probe.digest_misses));
    sim "verify_batch.batches_per_op" "count" (per c.Probe.vb_batches);
    sim "verify_batch.mean_batch" "count" (ratio c.Probe.vb_jobs c.Probe.vb_batches);
    sim "replica.batch_fill" "count" (ratio c.Probe.ops_proposed c.Probe.batches_cut);
    sim "replica.window_stalls" "count" c.Probe.window_stalls;
    sim "replica.hold_deferrals" "count" c.Probe.hold_deferrals;
    host "gc.minor_words_per_op" "words" (per c.Probe.minor_words);
    host "gc.promoted_words_per_op" "words" (per c.Probe.promoted_words);
    host "gc.major_collections" "count" c.Probe.major_collections;
  ]
  @ timers

(* Per-layer metrics only some workloads exercise; the others report them
   as 0 so every run prints the same set. *)
let absent =
  [
    ("knee_rps", "1/s");
    ("api.send_commit_ms_p50", "ms");
    ("api.send_commit_ms_p99", "ms");
    ("api.transit_ms_p50", "ms");
    ("api.transit_ms_p99", "ms");
    ("api.dup_recv_records", "count");
    ("comm_daemon.sent_per_record", "count");
    ("comm_daemon.retries", "count");
    ("comm_daemon.demoted", "count");
    ("comm_daemon.ack_ms_p50", "ms");
    ("shard.cross", "count");
    ("shard.aborted", "count");
    ("shard.timeouts", "count");
    ("shard.prepares_rejected", "count");
    ("shard.staged_left", "count");
  ]

let traced_only (p : Probe.t) f = if p.Probe.traced then f () else []

(* Queue depth by sampling, wait by Little's law over the arrival rate. *)
let queue_metrics (p : Probe.t) ~depth ~arrivals_per_ms =
  traced_only p (fun () ->
      [
        sim "replica.queue_depth_mean" "count" depth;
        sim "replica.queue_wait_ms" "ms" (ratio depth arrivals_per_ms);
      ])

let common_metrics (p : Probe.t) ~occupancy ~wal ~arrivals ~offered =
  [
    sim "replica.occupancy" "count" occupancy;
    sim "loadgen.offered_rps" "1/s" offered;
    sim "loadgen.arrivals" "count" (fi arrivals);
    (* Every arrival fires at its due time in simulated time. *)
    sim "loadgen.lateness_ms" "ms" 0.0;
  ]
  @ traced_only p (fun () -> [ sim "unit_node.wal_bytes_per_op" "B" (ratio wal (fi arrivals)) ])

(* A failed check counts as at least one failed op, so [failed_frac] is
   nonzero whenever any correctness check fails. *)
let result ctx ~e2e ~extra ~checks ~attempted ~failed =
  let ms = e2e_metrics ctx.p e2e @ layer_metrics ctx.p e2e @ extra in
  let checks =
    checks @ [ ("metrics finite", List.for_all (fun m -> Float.is_finite m.value) ms) ]
  in
  let failed = failed + List.length (List.filter (fun (_, ok) -> not ok) checks) in
  let ms = ms @ [ sim "failed_frac" "ratio" (ratio (fi failed) (fi attempted)) ] in
  let missing =
    List.filter_map
      (fun (name, unit_) ->
        if List.exists (fun m -> String.equal m.name name) ms then None
        else Some (sim name unit_ 0.0))
      absent
  in
  { metrics = ms @ missing; checks; attempted; failed }

(* ---------- local-small ---------- *)

let small_rates = [ 60_000.0; 120_000.0; 180_000.0; 240_000.0 ]
let slo_p99_ms = 10.0

(* One unit with the d8mf16 cut policy; 1 KB log_commits from 200k
   zipf(0.99)-skewed clients. *)
let small_world ctx ~k ~rate =
  let w =
    Runner.fresh_world ~fi:1 ~seed:(world_seed ctx k) ~n_participants:1 ~max_in_flight:8
      ~batch_min_fill:16 ~batch_hold:(Time.of_ms 0.25) ()
  in
  let api = Deployment.api w.Runner.dep 0 in
  let gen =
    Loadgen.create
      ~rng:(Bp_util.Rng.split (Engine.rng w.Runner.engine))
      {
        Loadgen.process = Loadgen.Poisson { rate_per_sec = rate };
        clients = 200_000;
        skew = 0.99;
        count = Stdlib.max_int;
      }
  in
  let op i ~client =
    let data = payload ~size:op_bytes (Printf.sprintf "c%d;op%d;" client i) in
    (0, op_bytes, fun ~on_done ~on_failed -> Api.log_commit api ~on_rejected:on_failed data ~on_done)
  in
  { w; apis = [ api ]; gen; op }

let local_small ctx =
  let window = 100.0 *. ctx.scale in
  let rungs : (float * phase) list =
    List.mapi
      (fun k rate ->
        let ph, () =
          open_phase ctx ~lane_names:[| "commit" |] ~window
            ~build:(fun () -> small_world ctx ~k ~rate)
            ~summarize:ignore
        in
        (rate, ph))
      small_rates
  in
  let rung r = match List.assoc_opt r rungs with Some ph -> ph | None -> invalid_arg "rung" in
  let at120 = rung 120_000.0 and at240 = rung 240_000.0 in
  let sum f = List.fold_left (fun a (_, (ph : phase)) -> a +. f ph) 0.0 rungs in
  let mean f = sum f /. fi (List.length rungs) in
  (* The knee: the highest rung whose p99 meets the SLO with a backlog
     that did not grow past twice its mid-window depth. *)
  let meets ph =
    pct ph.s.lat.(0) 99.0 <= slo_p99_ms && ph.s.backlog_end <= 2 * ph.s.backlog_mid
  in
  let knee = List.fold_left (fun a (r, ph) -> if meets ph then Float.max a r else a) 0.0 rungs in
  let span = (1.0 -. warmup) *. window /. 1000.0 in
  let arrivals = Float.to_int (sum (fun ph -> fi ph.s.arrived)) in
  let e2e =
    {
      setup_s = sum (fun ph -> ph.setup_s);
      commit = at120.s.lat.(0);
      deliver = at120.s.lat.(0);
      goodput = fi at240.s.done_in_window /. span;
      mbps = at240.s.bytes_in_window /. span /. 1e6;
      drain = at240.s.last_done -. window;
      stall = at120.s.stall;
      ops = sum (fun ph -> fi ph.s.measured);
      c = List.fold_left (fun a (_, (ph : phase)) -> Probe.add a ph.c) Probe.zero rungs;
    }
  in
  let extra =
    (sim "knee_rps" "1/s" knee
    :: common_metrics ctx.p ~occupancy:(mean (fun ph -> ph.occupancy)) ~wal:(sum (fun ph -> ph.wal))
         ~arrivals
         ~offered:(fi arrivals /. (fi (List.length rungs) *. window /. 1000.0)))
    @ queue_metrics ctx.p ~depth:(mean (fun ph -> ph.queue_depth))
        ~arrivals_per_ms:(mean (fun ph -> fi ph.s.measured) /. (span *. 1000.0))
  in
  let all f = List.for_all (fun (_, ph) -> f ph) rungs in
  result ctx ~e2e ~extra
    ~checks:
      [
        ("every arrival completed exactly once", all (fun ph -> ph.finished && ph.s.duplicates = 0));
        ("no op rejected", all (fun ph -> ph.s.failures = 0));
        ("replicas agree (logs, app state)", all (fun ph -> ph.agreed));
      ]
    ~attempted:arrivals
    ~failed:(List.fold_left (fun a (_, ph) -> a + phase_failed ph) 0 rungs)

(* ---------- shard-xs ---------- *)

let shards = 4
let shard_rate_per_unit = 50_000.0

(* Four units (Range map, d8mf16 each) on Table I; 5% of transactions
   touch two shards and run the BFT two-phase commit. *)
let shard_world ctx ~k =
  let map =
    Shard.make
      ~policy:(Shard.Range (Array.init (shards - 1) (fun i -> Printf.sprintf "s%02d" (i + 1))))
      ~shards ()
  in
  let w =
    Runner.fresh_world ~fi:1 ~seed:(world_seed ctx (10 + k)) ~n_participants:shards ~shard_map:map
      ~max_in_flight:8 ~batch_min_fill:16 ~batch_hold:(Time.of_ms 0.25) ()
  in
  let engine = w.Runner.engine in
  let router = Deployment.shard_router w.Runner.dep in
  let gen =
    Loadgen.create
      ~rng:(Bp_util.Rng.split (Engine.rng engine))
      {
        Loadgen.process = Loadgen.Poisson { rate_per_sec = shard_rate_per_unit *. fi shards };
        clients = 200_000;
        skew = 0.99;
        count = Stdlib.max_int;
      }
  in
  let mix =
    Loadgen.mix
      ~rng:(Bp_util.Rng.split (Engine.rng engine))
      { Loadgen.shards; cross_fraction = 0.05; txn_keys = 2; shard_skew = 0.0 }
  in
  let op i ~client =
    let targets = Loadgen.draw_targets mix in
    let ops =
      List.map
        (fun sh ->
          ( Shard.key_for map ~shard:sh ~salt:i,
            payload ~size:op_bytes (Printf.sprintf "c%d;op%d;" client i) ))
        targets
    in
    let lane = match targets with [ _ ] -> 0 | _ -> 1 in
    ( lane,
      op_bytes * List.length ops,
      fun ~on_done ~on_failed -> Shard.submit router ~on_aborted:on_failed ~on_done ops )
  in
  { w; apis = apis_of w.Runner.dep; gen; op }

(* Two independent worlds per run, pooled: the cross-shard path runs past
   its capacity at this load, so cross-shard latency rides a backlog that
   grows through the window, and one world's growth swings ~10% from seed
   to seed (see README.md). *)
let shard_worlds = 2

let shard_xs ctx =
  let window = 100.0 *. ctx.scale in
  let runs =
    List.init shard_worlds (fun k ->
        open_phase ctx ~lane_names:[| "single"; "cross" |] ~window
          ~build:(fun () -> shard_world ctx ~k)
          ~summarize:(fun ow ->
            ( Shard.stats (Deployment.shard_router ow.w.Runner.dep),
              List.fold_left (fun a api -> a + Api.xs_staged api) 0 ow.apis )))
  in
  let phases = List.map fst runs in
  let sum f = List.fold_left (fun a ph -> a +. f ph) 0.0 phases in
  let count f = List.fold_left (fun a (_, x) -> a + f x) 0 runs in
  let stat f = fi (count (fun (st, _) -> f st)) in
  let staged = count snd in
  let n = fi shard_worlds in
  let span = (1.0 -. warmup) *. window /. 1000.0 in
  let arrivals = Float.to_int (sum (fun ph -> fi ph.s.arrived)) in
  let e2e =
    {
      setup_s = sum (fun ph -> ph.setup_s);
      commit = pool 0 phases;
      deliver = pool 1 phases;
      goodput = sum (fun ph -> fi ph.s.done_in_window) /. (n *. span);
      mbps = sum (fun ph -> ph.s.bytes_in_window) /. (n *. span) /. 1e6;
      drain = sum (fun ph -> ph.s.last_done -. window) /. n;
      stall = List.fold_left (fun a ph -> Float.max a ph.s.stall) 0.0 phases;
      ops = sum (fun ph -> fi ph.s.measured);
      c = List.fold_left (fun a (ph : phase) -> Probe.add a ph.c) Probe.zero phases;
    }
  in
  let extra =
    [
      sim "shard.cross" "count" (stat (fun st -> st.Shard.cross_shard));
      sim "shard.aborted" "count" (stat (fun st -> st.Shard.aborted));
      sim "shard.timeouts" "count" (stat (fun st -> st.Shard.timeouts));
      sim "shard.prepares_rejected" "count" (stat (fun st -> st.Shard.prepares_rejected));
      sim "shard.staged_left" "count" (fi staged);
    ]
    @ common_metrics ctx.p ~occupancy:(sum (fun ph -> ph.occupancy) /. n)
        ~wal:(sum (fun ph -> ph.wal)) ~arrivals
        ~offered:(fi arrivals /. (n *. window /. 1000.0))
    @ queue_metrics ctx.p ~depth:(sum (fun ph -> ph.queue_depth) /. n)
        ~arrivals_per_ms:(sum (fun ph -> fi ph.s.measured) /. (n *. span *. 1000.0))
  in
  let all f = List.for_all f phases in
  result ctx ~e2e ~extra
    ~checks:
      [
        ("every arrival completed exactly once", all (fun ph -> ph.finished && ph.s.duplicates = 0));
        ( "no transaction aborted",
          all (fun ph -> ph.s.failures = 0) && stat (fun st -> st.Shard.aborted) = 0.0 );
        ("replicas agree (logs, app state)", all (fun ph -> ph.agreed));
        ("no cross-shard transaction left staged", staged = 0);
      ]
    ~attempted:arrivals
    ~failed:(List.fold_left (fun a ph -> a + phase_failed ph) 0 phases + staged)

(* ---------- local-bulk ---------- *)

(* Op sizes are drawn uniformly from 45-55 KB, so the inputs follow the
   seed. Not 100 KB: every node keeps its log and its WAL copy in memory,
   and 1200 ops of 100 KB peak at ~2.4 GB of heap. *)
let bulk_min_bytes = 45_000
let bulk_max_bytes = 55_000
let bulk_outstanding = 16

type bulk = {
  bw : Runner.world;
  bapi : Api.t;
  blat : Stats.t;
  total : int;
  warm_idx : int;
  mutable next : int;
  mutable bdone : int;
  mutable bdup : int;
  mutable brejected : int;
  mutable warm_at : float;
  mutable last_launch : float;
  mutable blast_done : float;
  mutable bstall : float;
  mutable measured_bytes : int;
  mutable tail_sum : float;  (** completion - last launch, over the ops in flight then *)
  mutable tail_n : int;
}

let local_bulk ctx =
  let p = ctx.p in
  let total = Stdlib.max 20 (Float.to_int (Float.round (1200.0 *. ctx.scale))) in
  let make () =
    (* One unit at depth 8 with the seed's cut-on-any-signal policy. *)
    let w = Runner.fresh_world ~fi:1 ~seed:(world_seed ctx 20) ~n_participants:1 ~max_in_flight:8 () in
    let b =
      {
        bw = w;
        bapi = Deployment.api w.Runner.dep 0;
        blat = Stats.create ();
        total;
        warm_idx = Float.to_int (warmup *. fi total);
        next = 0;
        bdone = 0;
        bdup = 0;
        brejected = 0;
        warm_at = 0.0;
        last_launch = 0.0;
        blast_done = 0.0;
        bstall = 0.0;
        measured_bytes = 0;
        tail_sum = 0.0;
        tail_n = 0;
      }
    in
    let engine = w.Runner.engine in
    let sizes = Bp_util.Rng.split (Engine.rng engine) in
    (* Closed loop: every completion launches the next op. *)
    let rec launch () =
      if b.next < b.total then begin
        let i = b.next in
        b.next <- i + 1;
        let t0 = Engine.now engine in
        if i = b.warm_idx then b.warm_at <- Time.to_ms t0;
        b.last_launch <- Time.to_ms t0;
        let id = Probe.op_id p in
        let fired = ref false in
        let finish ~ok () =
          if !fired then b.bdup <- b.bdup + 1
          else begin
            fired := true;
            let t1 = Engine.now engine in
            let now = Time.to_ms t1 in
            if not ok then b.brejected <- b.brejected + 1;
            b.bdone <- b.bdone + 1;
            if i >= b.warm_idx then begin
              Stats.add b.blat (now -. Time.to_ms t0);
              b.bstall <- Float.max b.bstall (now -. Float.max b.blast_done b.warm_at)
            end;
            b.blast_done <- now;
            if b.next >= b.total then begin
              b.tail_sum <- b.tail_sum +. (now -. b.last_launch);
              b.tail_n <- b.tail_n + 1
            end;
            Probe.span p ~name:"commit" ~op:id ~lane:0 t0 t1;
            launch ()
          end
        in
        let size = bulk_min_bytes + Bp_util.Rng.int sizes (bulk_max_bytes - bulk_min_bytes + 1) in
        if i >= b.warm_idx then b.measured_bytes <- b.measured_bytes + size;
        let data = payload ~size (Printf.sprintf "bulk-%d;" i) in
        Probe.submit p (fun () ->
            Api.log_commit b.bapi ~on_rejected:(finish ~ok:false) data ~on_done:(finish ~ok:true))
      end
    in
    for _ = 1 to bulk_outstanding do
      launch ()
    done;
    b
  in
  let limit = Time.of_ms 600_000.0 in
  let b, setup_s, warmed =
    prepare ctx ~build:make ~warm:(fun b ->
        Probe.drive p b.bw.Runner.engine ~limit ~until:(fun () -> b.next > b.warm_idx))
  in
  let engine = b.bw.Runner.engine and net = b.bw.Runner.net in
  let apis = [ b.bapi ] in
  let c0 = Probe.snapshot p ~net ~apis in
  let depth = sampler p engine ~apis ~stop:(fun () -> b.bdone >= b.total) in
  let finished = warmed && Probe.drive p engine ~limit ~until:(fun () -> b.bdone >= b.total) in
  let c = Probe.sub (Probe.snapshot p ~net ~apis) c0 in
  let agreed = settle_and_agree p b.bw in
  let measured = b.total - b.warm_idx in
  let span = (b.blast_done -. b.warm_at) /. 1000.0 in
  let e2e =
    {
      setup_s;
      commit = b.blat;
      deliver = b.blat;
      goodput = ratio (fi measured) span;
      mbps = ratio (fi b.measured_bytes) span /. 1e6;
      (* A closed loop has no backlog; its drain is the mean time the ops
         in flight at the last launch take to complete after it. *)
      drain = ratio b.tail_sum (fi b.tail_n);
      stall = b.bstall;
      ops = fi measured;
      c;
    }
  in
  let extra =
    common_metrics p ~occupancy:(occupancy apis) ~wal:(wal_bytes p b.bw.Runner.dep)
      ~arrivals:b.total ~offered:(ratio (fi measured) span)
    @ queue_metrics p ~depth:(depth ()) ~arrivals_per_ms:(ratio (fi measured) (span *. 1000.0))
  in
  result ctx ~e2e ~extra
    ~checks:
      [
        ("every op completed exactly once", finished && b.bdup = 0);
        ("no op rejected", b.brejected = 0);
        ("replicas agree (logs, app state)", agreed);
      ]
    ~attempted:b.total
    ~failed:(b.total - b.bdone + b.bdup + b.brejected)

(* ---------- geo-send ---------- *)

(* No fault is injected: crashing a backup that inbound daemons rotate
   to, (1,1), sends some seeds into view-change cascades with
   multi-second delivery stalls and others not, and 0.2% packet loss
   does the same, so the tail metrics would swing several-fold from seed
   to seed. See README.md. *)
let geo_rate_per_pair = 500.0
let geo_bytes = 200

type pair = {
  src : int;
  dst : int;
  pgen : Loadgen.t;
  mutable sent : int;
  mutable received : int;
  mutable acked : int;
  mutable misdelivered : int;
  payloads : string array;
  ids : int array;
  t_send : Time.t array;
  t_done : Time.t array;
  t_recv : Time.t array;
  t_ack : Time.t array;
}

type geo = {
  gw : Runner.world;
  pairs : pair array;
  gwarm : float;
  mutable open_chains : int;
  mutable pending : int;  (** sent ops not yet committed, delivered and acked *)
  mutable gdup : int;
  mutable grejected : int;
  mutable dup_signals : int;
  last_recv_at : float array;  (** per destination *)
  mutable gstall : float;
}

let geo_send ctx =
  let p = ctx.p in
  let window = 400.0 *. ctx.scale in
  let cap = Float.to_int (2.0 *. geo_rate_per_pair *. window /. 1000.0) + 64 in
  let make () =
    (* Four participants on Table I, fi = fg = 1, the default depth-1 unit. *)
    let w = Runner.fresh_world ~fi:1 ~fg:1 ~seed:(world_seed ctx 30) ~n_participants:4 () in
    let engine = w.Runner.engine and dep = w.Runner.dep in
    let n = Deployment.n_participants dep in
    let pairs =
      List.concat_map
        (fun src ->
          List.filter_map (fun dst -> if dst = src then None else Some (src, dst)) (participants dep))
        (participants dep)
      |> List.map (fun (src, dst) ->
             {
               src;
               dst;
               pgen =
                 Loadgen.create
                   ~rng:(Bp_util.Rng.split (Engine.rng engine))
                   {
                     Loadgen.process = Loadgen.Poisson { rate_per_sec = geo_rate_per_pair };
                     clients = 1;
                     skew = 0.0;
                     count = Stdlib.max_int;
                   };
               sent = 0;
               received = 0;
               acked = 0;
               misdelivered = 0;
               payloads = Array.make cap "";
               ids = Array.make cap 0;
               t_send = Array.make cap Time.zero;
               t_done = Array.make cap Time.zero;
               t_recv = Array.make cap Time.zero;
               t_ack = Array.make cap Time.zero;
             })
      |> Array.of_list
    in
    let g =
      {
        gw = w;
        pairs;
        gwarm = warmup *. window;
        open_chains = Array.length pairs;
        pending = 0;
        gdup = 0;
        grejected = 0;
        dup_signals = 0;
        last_recv_at = Array.make n 0.0;
        gstall = 0.0;
      }
    in
    let pair_of ~src ~dst = pairs.((src * (n - 1)) + if dst > src then dst - 1 else dst) in
    let is_set t = Time.( > ) t Time.zero in
    (* An op is over once it is committed, delivered and acknowledged. *)
    let settle_op pr k =
      if is_set pr.t_done.(k) && is_set pr.t_recv.(k) && is_set pr.t_ack.(k) then
        g.pending <- g.pending - 1
    in
    (* Lemma 2 from outside: drained through [Api.receive] (the paper's
       receive instruction), the k-th message of a pair must be exactly its
       k-th send — no duplicate, gap or reordering. [on_receive] only
       signals that a received record executed; a signal with nothing new
       to drain means a duplicate received record reached the Local Log. *)
    List.iter
      (fun dst ->
        let api = Deployment.api dep dst in
        Api.on_receive api (fun ~src _ ->
            let pr = pair_of ~src ~dst in
            let rec drain fresh =
              match Api.receive api ~src with
              | None -> if not fresh then g.dup_signals <- g.dup_signals + 1
              | Some data ->
                  let k = pr.received in
                  if k < pr.sent && String.equal data pr.payloads.(k) then begin
                    let t = Engine.now engine in
                    pr.t_recv.(k) <- t;
                    pr.received <- k + 1;
                    let now = Time.to_ms t in
                    if now >= g.gwarm then
                      g.gstall <- Float.max g.gstall (now -. Float.max g.last_recv_at.(dst) g.gwarm);
                    g.last_recv_at.(dst) <- now;
                    settle_op pr k
                  end
                  else pr.misdelivered <- pr.misdelivered + 1;
                  drain true
            in
            drain false))
      (participants dep);
    Array.iter
      (fun pr ->
        Comm_daemon.on_acked (Deployment.daemon dep ~src:pr.src ~dest:pr.dst) (fun frontier ->
            while pr.acked <= frontier && pr.acked < pr.sent do
              pr.t_ack.(pr.acked) <- Engine.now engine;
              settle_op pr pr.acked;
              pr.acked <- pr.acked + 1
            done))
      pairs;
    Array.iter
      (fun pr ->
        let api = Deployment.api dep pr.src in
        arrival_chain engine ~window
          ~gap:(fun () -> if pr.sent < cap then Loadgen.next_gap_ms pr.pgen else infinity)
          ~fire:(fun () ->
            let k = pr.sent in
            let data = payload ~size:geo_bytes (Printf.sprintf "%d>%d#%d;" pr.src pr.dst k) in
            pr.payloads.(k) <- data;
            pr.ids.(k) <- Probe.op_id p;
            pr.t_send.(k) <- Engine.now engine;
            pr.sent <- k + 1;
            g.pending <- g.pending + 1;
            let fired = ref false in
            let finish ~ok () =
              if !fired then g.gdup <- g.gdup + 1
              else begin
                fired := true;
                if not ok then g.grejected <- g.grejected + 1;
                pr.t_done.(k) <- Engine.now engine;
                settle_op pr k
              end
            in
            Probe.submit p (fun () ->
                Api.send api ~on_rejected:(finish ~ok:false) ~dest:pr.dst data
                  ~on_done:(finish ~ok:true)))
          ~close:(fun () -> g.open_chains <- g.open_chains - 1))
      pairs;
    g
  in
  let limit = Time.of_ms (window +. 120_000.0) in
  let g, setup_s, warmed =
    prepare ctx ~build:make ~warm:(fun g ->
        Probe.drive p g.gw.Runner.engine ~limit ~until:(fun () ->
            g.open_chains = 0 || now_ms g.gw.Runner.engine >= g.gwarm))
  in
  let engine = g.gw.Runner.engine and net = g.gw.Runner.net and dep = g.gw.Runner.dep in
  let apis = apis_of dep in
  let c0 = Probe.snapshot p ~net ~apis in
  let depth = sampler p engine ~apis ~stop:(fun () -> now_ms engine >= window) in
  let finished =
    warmed && Probe.drive p engine ~limit ~until:(fun () -> g.open_chains = 0 && g.pending = 0)
  in
  let c = Probe.sub (Probe.snapshot p ~net ~apis) c0 in
  let agreed = settle_and_agree p g.gw in
  (* Per-op segments: send -> on_done (local commit plus geo proving),
     on_done -> remote delivery, delivery -> the source daemon's ack. The
     end-to-end [commit] is send -> committed at the destination, and
     [deliver] is send -> acknowledged back at the source (Fig. 6). *)
  let send_commit = Stats.create () and transit = Stats.create () in
  let commit = Stats.create () and deliver = Stats.create () and ack = Stats.create () in
  let ops = ref 0 and in_window = ref 0 and last_recv = ref 0.0 and sent = ref 0 in
  Array.iteri
    (fun lane pr ->
      sent := !sent + pr.sent;
      for k = 0 to pr.received - 1 do
        let ms = Time.to_ms in
        let t0 = pr.t_send.(k) and td = pr.t_done.(k) and tr = pr.t_recv.(k) and ta = pr.t_ack.(k) in
        if ms tr >= g.gwarm && ms tr <= window then incr in_window;
        last_recv := Float.max !last_recv (ms tr);
        if ms t0 >= g.gwarm then begin
          incr ops;
          Stats.add send_commit (ms td -. ms t0);
          Stats.add transit (ms tr -. ms td);
          Stats.add commit (ms tr -. ms t0);
          Stats.add ack (ms ta -. ms tr);
          Stats.add deliver (ms ta -. ms t0)
        end;
        let id = pr.ids.(k) in
        Probe.span p ~name:"send_commit" ~op:id ~lane t0 td;
        Probe.span p ~name:"transit" ~op:id ~lane td tr;
        Probe.span p ~name:"ack" ~op:id ~lane tr ta
      done)
    g.pairs;
  let span = (1.0 -. warmup) *. window /. 1000.0 in
  let daemon_sum f =
    Array.fold_left
      (fun a pr -> a + f (Comm_daemon.counters (Deployment.daemon dep ~src:pr.src ~dest:pr.dst)))
      0 g.pairs
  in
  let received = Array.fold_left (fun a pr -> a + pr.received) 0 g.pairs in
  let e2e =
    {
      setup_s;
      commit;
      deliver;
      goodput = fi !in_window /. span;
      mbps = fi (!in_window * geo_bytes) /. span /. 1e6;
      drain = !last_recv -. window;
      stall = g.gstall;
      ops = fi !ops;
      c;
    }
  in
  let extra =
    [
      sim "api.send_commit_ms_p50" "ms" (pct send_commit 50.0);
      sim "api.send_commit_ms_p99" "ms" (pct send_commit 99.0);
      sim "api.transit_ms_p50" "ms" (pct transit 50.0);
      sim "api.transit_ms_p99" "ms" (pct transit 99.0);
      sim "api.dup_recv_records" "count" (fi g.dup_signals);
      sim "comm_daemon.sent_per_record" "count"
        (ratio (fi (daemon_sum (fun c -> c.Comm_daemon.sent))) (fi received));
      sim "comm_daemon.retries" "count" (fi (daemon_sum (fun c -> c.Comm_daemon.retries)));
      sim "comm_daemon.demoted" "count" (fi (daemon_sum (fun c -> c.Comm_daemon.demoted)));
      sim "comm_daemon.ack_ms_p50" "ms" (pct ack 50.0);
    ]
    @ common_metrics p ~occupancy:(occupancy apis) ~wal:(wal_bytes p dep) ~arrivals:!sent
        ~offered:(fi !sent /. (window /. 1000.0))
    @ queue_metrics p ~depth:(depth ()) ~arrivals_per_ms:(fi !ops /. (span *. 1000.0))
  in
  let all f = Array.for_all f g.pairs in
  let undelivered =
    Array.fold_left (fun a pr -> a + (pr.sent - pr.received) + pr.misdelivered) 0 g.pairs
  in
  result ctx ~e2e ~extra
    ~checks:
      [
        ("every send committed exactly once", finished && g.gdup = 0 && g.grejected = 0);
        ( "exactly-once, gap-free, per-pair ordered delivery",
          all (fun pr -> pr.received = pr.sent && pr.misdelivered = 0 && pr.sent < cap) );
        ("every delivery acknowledged", all (fun pr -> pr.acked = pr.received));
        ("replicas agree (logs, app state)", agreed);
      ]
    ~attempted:!sent
    ~failed:(undelivered + g.gdup + g.grejected)

let all =
  [ ("local-small", local_small); ("local-bulk", local_bulk); ("geo-send", geo_send); ("shard-xs", shard_xs) ]
