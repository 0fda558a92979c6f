open Bp_sim

type process =
  | Poisson of { rate_per_sec : float }
  | Bursty of { rate_on : float; on_ms : float; off_ms : float }
  | Diurnal of { base_rate : float; trace : (float * float) array }

type spec = { process : process; clients : int; skew : float; count : int }

type t = {
  spec : spec;
  rng : Bp_util.Rng.t;
  zipf : Bp_util.Zipf.t option;
  (* Phase state advanced by gap draws. Bursty: time left in the current
     on-phase. Diurnal: current trace segment and time left in it. *)
  mutable on_left_ms : float;
  mutable seg : int;
  mutable seg_left_ms : float;
}

let validate spec =
  let pos name v =
    if v <= 0.0 || not (Float.is_finite v) then
      invalid_arg (Printf.sprintf "Loadgen: %s must be positive and finite" name)
  in
  (match spec.process with
  | Poisson { rate_per_sec } -> pos "rate_per_sec" rate_per_sec
  | Bursty { rate_on; on_ms; off_ms } ->
      pos "rate_on" rate_on;
      pos "on_ms" on_ms;
      pos "off_ms" off_ms
  | Diurnal { base_rate; trace } ->
      pos "base_rate" base_rate;
      if Array.length trace = 0 then invalid_arg "Loadgen: empty diurnal trace";
      Array.iter
        (fun (seg_ms, mult) ->
          pos "trace segment duration" seg_ms;
          if mult < 0.0 || not (Float.is_finite mult) then
            invalid_arg "Loadgen: trace multiplier must be >= 0 and finite")
        trace;
      if not (Array.exists (fun (_, m) -> m > 0.0) trace) then
        invalid_arg "Loadgen: diurnal trace needs a positive-rate segment");
  if spec.clients < 1 then invalid_arg "Loadgen: clients must be >= 1";
  if spec.skew < 0.0 || not (Float.is_finite spec.skew) then
    invalid_arg "Loadgen: skew must be >= 0 and finite";
  if spec.count < 1 then invalid_arg "Loadgen: count must be >= 1"

let create ~rng spec =
  validate spec;
  let zipf =
    (* skew 0 is the uniform distribution; sample it directly rather
       than through the rejection layer. *)
    if spec.skew > 0.0 && spec.clients > 1 then
      Some (Bp_util.Zipf.create ~n:spec.clients ~s:spec.skew)
    else None
  in
  let on_left_ms =
    match spec.process with
    | Bursty { on_ms; _ } -> Bp_util.Rng.exponential rng ~mean:on_ms
    | _ -> 0.0
  in
  let seg_left_ms =
    match spec.process with Diurnal { trace; _ } -> fst trace.(0) | _ -> 0.0
  in
  { spec; rng; zipf; on_left_ms; seg = 0; seg_left_ms }

let spec t = t.spec

let offered_per_sec t =
  match t.spec.process with
  | Poisson { rate_per_sec } -> rate_per_sec
  | Bursty { rate_on; on_ms; off_ms } -> rate_on *. on_ms /. (on_ms +. off_ms)
  | Diurnal { base_rate; trace } ->
      let wsum = Array.fold_left (fun a (d, m) -> a +. (d *. m)) 0.0 trace in
      let dsum = Array.fold_left (fun a (d, _) -> a +. d) 0.0 trace in
      base_rate *. wsum /. dsum

(* Draw the next inter-arrival gap, advancing phase state. Bursty and
   diurnal phases rely on the exponential's memorylessness: a candidate
   gap overshooting the current phase is discarded and redrawn inside
   the next active phase, with the dead time added to the gap. *)
let next_gap_ms t =
  match t.spec.process with
  | Poisson { rate_per_sec } ->
      Bp_util.Rng.exponential t.rng ~mean:(1000.0 /. rate_per_sec)
  | Bursty { rate_on; on_ms; off_ms } ->
      let mean_gap = 1000.0 /. rate_on in
      let rec go acc =
        let g = Bp_util.Rng.exponential t.rng ~mean:mean_gap in
        if g <= t.on_left_ms then begin
          t.on_left_ms <- t.on_left_ms -. g;
          acc +. g
        end
        else begin
          let dead = t.on_left_ms +. Bp_util.Rng.exponential t.rng ~mean:off_ms in
          t.on_left_ms <- Bp_util.Rng.exponential t.rng ~mean:on_ms;
          go (acc +. dead)
        end
      in
      go 0.0
  | Diurnal { base_rate; trace } ->
      let advance () =
        t.seg <- (t.seg + 1) mod Array.length trace;
        t.seg_left_ms <- fst trace.(t.seg)
      in
      let rec go acc =
        let _, mult = trace.(t.seg) in
        if mult <= 0.0 then begin
          (* Quiet segment: no arrivals, the whole remainder is gap. *)
          let dead = t.seg_left_ms in
          advance ();
          go (acc +. dead)
        end
        else begin
          let g =
            Bp_util.Rng.exponential t.rng ~mean:(1000.0 /. (base_rate *. mult))
          in
          if g <= t.seg_left_ms then begin
            t.seg_left_ms <- t.seg_left_ms -. g;
            acc +. g
          end
          else begin
            let dead = t.seg_left_ms in
            advance ();
            go (acc +. dead)
          end
        end
      in
      go 0.0

let next_client t =
  match t.zipf with
  | Some z -> Bp_util.Zipf.sample z t.rng
  | None -> if t.spec.clients = 1 then 0 else Bp_util.Rng.int t.rng t.spec.clients

(* ---------- multi-key transaction mix (shard targeting) ---------- *)

type mix_spec = {
  shards : int;
  cross_fraction : float;
  txn_keys : int;
  shard_skew : float;
}

type mix = {
  mspec : mix_spec;
  mrng : Bp_util.Rng.t;
  mzipf : Bp_util.Zipf.t option;
}

let mix ~rng spec =
  if spec.shards < 1 then invalid_arg "Loadgen.mix: shards must be >= 1";
  if
    spec.cross_fraction < 0.0 || spec.cross_fraction > 1.0
    || not (Float.is_finite spec.cross_fraction)
  then invalid_arg "Loadgen.mix: cross_fraction must be in [0, 1]";
  if spec.txn_keys < 2 then invalid_arg "Loadgen.mix: txn_keys must be >= 2";
  if spec.shard_skew < 0.0 || not (Float.is_finite spec.shard_skew) then
    invalid_arg "Loadgen.mix: shard_skew must be >= 0 and finite";
  let mzipf =
    if spec.shard_skew > 0.0 && spec.shards > 1 then
      Some (Bp_util.Zipf.create ~n:spec.shards ~s:spec.shard_skew)
    else None
  in
  { mspec = spec; mrng = rng; mzipf }

let draw_shard m =
  match m.mzipf with
  | Some z -> Bp_util.Zipf.sample z m.mrng
  | None -> if m.mspec.shards = 1 then 0 else Bp_util.Rng.int m.mrng m.mspec.shards

let draw_targets m =
  let home = draw_shard m in
  if m.mspec.shards = 1 || not (Bp_util.Rng.bernoulli m.mrng m.mspec.cross_fraction)
  then [ home ]
  else begin
    (* Distinct shards by redraw: the draw count is capped at the shard
       count, so the rejection loop terminates; under skew the expected
       redraws stay small because duplicates concentrate on few ranks. *)
    let want = Stdlib.min m.mspec.txn_keys m.mspec.shards in
    let chosen = ref [ home ] in
    while List.length !chosen < want do
      let s = draw_shard m in
      if not (List.mem s !chosen) then chosen := s :: !chosen
    done;
    List.sort compare !chosen
  end

type arrival = { index : int; client : int; at : Time.t }

(* The canonical per-arrival draw order — shared, by construction, with
   the streaming [run] below: gap_0 at start; then, inside arrival i,
   gap_{i+1} (when a successor exists) followed by client_i. The qcheck
   equivalence property holds [run] to this reference. *)
let plan ?(start = Time.zero) ~rng spec =
  let t = create ~rng spec in
  let arr = Array.make spec.count { index = 0; client = 0; at = Time.zero } in
  let rec fill i at =
    let next =
      if i + 1 < spec.count then
        Some (Time.add at (Time.of_ms (next_gap_ms t)))
      else None
    in
    let client = next_client t in
    arr.(i) <- { index = i; client; at };
    match next with Some a -> fill (i + 1) a | None -> ()
  in
  fill 0 (Time.add start (Time.of_ms (next_gap_ms t)));
  arr

type result = {
  latencies : Bp_util.Stats.t;
  makespan_ms : float;
  achieved_per_sec : float;
  offered_per_sec : float;
  peak_arrivals_pending : int;
  peak_engine_pending : int;
}

let run engine ~gen ~submit =
  let count = gen.spec.count in
  let stats = Bp_util.Stats.create () in
  let completed = ref 0 in
  let first_arrival = ref None in
  let last_completion = ref Time.zero in
  let arrivals_pending = ref 0 in
  let peak_arrivals = ref 0 in
  let peak_engine = ref 0 in
  let rec arrive i at =
    incr arrivals_pending;
    if !arrivals_pending > !peak_arrivals then peak_arrivals := !arrivals_pending;
    ignore
      (Engine.schedule_at engine at (fun () ->
           decr arrivals_pending;
           (* Streaming: the successor enters the heap here — never more
              than one pending arrival per process, however large
              [count]. Scheduled before the submit so that same-instant
              ties resolve arrival-first, as an eager pre-scheduler
              would. *)
           if i + 1 < count then
             arrive (i + 1) (Time.add at (Time.of_ms (next_gap_ms gen)));
           let p = Engine.pending engine in
           if p > !peak_engine then peak_engine := p;
           let client = next_client gen in
           if !first_arrival = None then first_arrival := Some (Engine.now engine);
           let t0 = Engine.now engine in
           submit i ~client ~on_done:(fun () ->
               incr completed;
               last_completion := Engine.now engine;
               Bp_util.Stats.add stats
                 (Time.to_ms (Time.diff (Engine.now engine) t0)))))
  in
  arrive 0 (Time.add (Engine.now engine) (Time.of_ms (next_gap_ms gen)));
  Runner.drive engine ~what:"Loadgen.run" ~finished:(fun () -> !completed >= count);
  let start = Option.value ~default:Time.zero !first_arrival in
  let makespan_ms = Time.to_ms (Time.diff !last_completion start) in
  {
    latencies = stats;
    makespan_ms;
    achieved_per_sec = float_of_int count /. (makespan_ms /. 1000.0);
    offered_per_sec = offered_per_sec gen;
    peak_arrivals_pending = !peak_arrivals;
    peak_engine_pending = !peak_engine;
  }
