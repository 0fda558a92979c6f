(* Host-side instrumentation the benchmark wraps around its own calls into
   the system: engine steps, submit calls, snapshots of the layer counters
   (read through their public getters only) and per-op spans. An untraced
   probe only counts; a traced one also times every step and submit and
   keeps spans when asked to. *)

open Bp_sim
open Blockplane

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = { name : string; op : int; lane : int; t0 : Time.t; t1 : Time.t }

type t = {
  traced : bool;
  keep_spans : bool;
  mutable steps : int;
  mutable sampler_events : int;
  mutable step_ns : int;
  mutable submit_ns : int;
  mutable next_op : int;
  mutable spans : span list;
  mutable reference_s : float;
  mutable reference_runs : int;
}

let create ~traced ~keep_spans =
  {
    traced;
    keep_spans;
    steps = 0;
    sampler_events = 0;
    step_ns = 0;
    submit_ns = 0;
    next_op = 0;
    spans = [];
    reference_s = 0.0;
    reference_runs = 0;
  }

(* Machine-speed reference. On a shared VM the CPU time of the same work
   drifts by tens of percent over seconds to minutes, with the load of
   other tenants. A fixed piece of work, independent of the system under
   test and allocation-free (so it never runs a collection of the
   workload's heap), runs every [reference_every] engine steps. Its time
   is kept out of every host measurement, and [speed] rescales host times
   to the nominal reference cost, so a uniformly slower machine reads
   about the same. *)
let reference_every = 2000
let reference_nominal_s = 300e-6
let reference_bytes = Bytes.create 65536
let reference_table = Array.make (1 lsl 17) 0

let run_reference p =
  let c0 = cpu_s () in
  for i = 0 to Bytes.length reference_bytes - 1 do
    Bytes.unsafe_set reference_bytes i (Char.unsafe_chr (i land 255))
  done;
  ignore (Sys.opaque_identity (Digest.bytes reference_bytes));
  let x = ref 1 and mask = Array.length reference_table - 1 in
  for _ = 1 to 20_000 do
    x := ((!x * 1103515245) + 12345) land mask;
    reference_table.(!x) <- reference_table.(!x) + 1
  done;
  p.reference_s <- p.reference_s +. (cpu_s () -. c0);
  p.reference_runs <- p.reference_runs + 1

(* Host CPU seconds so far, without the reference's own. *)
let host_s p = cpu_s () -. p.reference_s

(* Nominal over measured reference cost; 1 before the first reference. *)
let speed p =
  if p.reference_runs = 0 then 1.0
  else reference_nominal_s /. (p.reference_s /. float_of_int p.reference_runs)

let step p engine =
  p.steps <- p.steps + 1;
  if p.steps mod reference_every = 0 then run_reference p;
  if p.traced then begin
    let t0 = now_ns () in
    let more = Engine.step engine in
    p.step_ns <- p.step_ns + (now_ns () - t0);
    more
  end
  else Engine.step engine

(* Submits run inside arrival events, so their time is also inside the
   enclosing step; the step share is reported net of it. *)
let submit p f =
  if p.traced then begin
    let t0 = now_ns () in
    f ();
    p.submit_ns <- p.submit_ns + (now_ns () - t0)
  end
  else f ()

(* A fresh op id, shared by every span of that op. *)
let op_id p =
  p.next_op <- p.next_op + 1;
  p.next_op

let span p ~name ~op ~lane t0 t1 =
  if p.keep_spans then p.spans <- { name; op; lane; t0; t1 } :: p.spans

(* Step [engine] until [until ()] holds. [false] when the simulated clock
   passes [limit] first, or the queue empties with [until] still false. *)
let drive p engine ~limit ~until =
  let rec loop () =
    if until () then true
    else if Time.( > ) (Engine.now engine) limit then false
    else if step p engine then loop ()
    else until ()
  in
  loop ()

(* ---------- layer counters ---------- *)

type counters = {
  cpu_s : float;
  steps : float;
  sampler_events : float;
  step_ns : float;
  submit_ns : float;
  msgs : float;
  bytes : float;
  wan_msgs : float;
  wan_bytes : float;
  dropped : float;
  encode_calls : float;
  verify_hits : float;
  verify_misses : float;
  digest_hits : float;
  digest_misses : float;
  vb_batches : float;
  vb_jobs : float;
  batches_cut : float;
  ops_proposed : float;
  window_stalls : float;
  hold_deferrals : float;
  minor_words : float;
  promoted_words : float;
  major_collections : float;
}

let map2 f a b =
  {
    cpu_s = f a.cpu_s b.cpu_s;
    steps = f a.steps b.steps;
    sampler_events = f a.sampler_events b.sampler_events;
    step_ns = f a.step_ns b.step_ns;
    submit_ns = f a.submit_ns b.submit_ns;
    msgs = f a.msgs b.msgs;
    bytes = f a.bytes b.bytes;
    wan_msgs = f a.wan_msgs b.wan_msgs;
    wan_bytes = f a.wan_bytes b.wan_bytes;
    dropped = f a.dropped b.dropped;
    encode_calls = f a.encode_calls b.encode_calls;
    verify_hits = f a.verify_hits b.verify_hits;
    verify_misses = f a.verify_misses b.verify_misses;
    digest_hits = f a.digest_hits b.digest_hits;
    digest_misses = f a.digest_misses b.digest_misses;
    vb_batches = f a.vb_batches b.vb_batches;
    vb_jobs = f a.vb_jobs b.vb_jobs;
    batches_cut = f a.batches_cut b.batches_cut;
    ops_proposed = f a.ops_proposed b.ops_proposed;
    window_stalls = f a.window_stalls b.window_stalls;
    hold_deferrals = f a.hold_deferrals b.hold_deferrals;
    minor_words = f a.minor_words b.minor_words;
    promoted_words = f a.promoted_words b.promoted_words;
    major_collections = f a.major_collections b.major_collections;
  }

let zero =
  let z = 0.0 in
  {
    cpu_s = z;
    steps = z;
    sampler_events = z;
    step_ns = z;
    submit_ns = z;
    msgs = z;
    bytes = z;
    wan_msgs = z;
    wan_bytes = z;
    dropped = z;
    encode_calls = z;
    verify_hits = z;
    verify_misses = z;
    digest_hits = z;
    digest_misses = z;
    vb_batches = z;
    vb_jobs = z;
    batches_cut = z;
    ops_proposed = z;
    window_stalls = z;
    hold_deferrals = z;
    minor_words = z;
    promoted_words = z;
    major_collections = z;
  }

let add = map2 ( +. )
let sub = map2 ( -. )

let off_diagonal m =
  let s = ref 0 in
  Array.iteri (fun i row -> Array.iteri (fun j v -> if i <> j then s := !s + v) row) m;
  float_of_int !s

let fi = float_of_int

(* Everything is read through public getters: the network's counters and
   traffic matrices, the process-global codec/cache/batch tallies, and the
   lead nodes' batch statistics via [Api.batch_stats]. *)
let snapshot (p : t) ~net ~apis =
  let n = Network.counters net in
  let vc = Bp_crypto.Verify_cache.counters () in
  let vb = Bp_crypto.Verify_batch.stats (Bp_crypto.Verify_batch.global ()) in
  let bs f =
    List.fold_left (fun acc api -> acc +. fi (f (Api.batch_stats api))) 0.0 apis
  in
  let gc = Gc.quick_stat () in
  {
    cpu_s = host_s p;
    steps = fi p.steps;
    sampler_events = fi p.sampler_events;
    step_ns = fi p.step_ns;
    submit_ns = fi p.submit_ns;
    msgs = fi n.Network.sent;
    bytes = fi n.Network.bytes_sent;
    wan_msgs = off_diagonal (Network.message_matrix net);
    wan_bytes = off_diagonal (Network.traffic_matrix net);
    dropped = fi n.Network.dropped;
    encode_calls = fi (Bp_codec.Wire.encode_calls ());
    verify_hits = fi vc.Bp_crypto.Verify_cache.verify_hits;
    verify_misses = fi vc.Bp_crypto.Verify_cache.verify_misses;
    digest_hits = fi vc.Bp_crypto.Verify_cache.digest_hits;
    digest_misses = fi vc.Bp_crypto.Verify_cache.digest_misses;
    vb_batches = fi vb.Bp_crypto.Verify_batch.batches;
    vb_jobs = fi vb.Bp_crypto.Verify_batch.jobs_submitted;
    batches_cut = bs (fun b -> b.Bp_pbft.Replica.batches_cut);
    ops_proposed = bs (fun b -> b.Bp_pbft.Replica.ops_proposed);
    window_stalls = bs (fun b -> b.Bp_pbft.Replica.window_stalls);
    hold_deferrals = bs (fun b -> b.Bp_pbft.Replica.hold_deferrals);
    minor_words = gc.Gc.minor_words;
    promoted_words = gc.Gc.promoted_words;
    major_collections = fi gc.Gc.major_collections;
  }

(* ---------- Chrome trace-event output ---------- *)

let write_spans p ~path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      let us t = float_of_int (Time.to_ns t) /. 1000.0 in
      Printf.fprintf oc
        "%s{\"name\":\"%s\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"id\":%d,\"args\":{\"op\":%d}}\n"
        (if i = 0 then "" else ",")
        s.name s.lane (us s.t0)
        (us s.t1 -. us s.t0)
        s.op s.op)
    (List.rev p.spans);
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
