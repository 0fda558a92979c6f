open Bp_sim
open Blockplane

(* Scale-out study: the keyspace partitioned across 1..16 independent
   Blockplane units at FIXED per-unit resources (every unit keeps its
   own 3fi+1 nodes, its own datacenter on the tiled Table I topology,
   and the d8mf16 batch-cut policy that won ablation-saturation), under
   open-loop load offered proportionally to the shard count. The 0%
   cross-shard series is the headline: units share nothing, so the
   aggregate knee should scale near-linearly. The 5%/20% series price
   the BFT two-phase commit (prepare/vote/decide each a committed record
   plus a WAN round), and the skewed series concentrates load zipf(0.99)
   on hot shards — the honest degradation cases. *)

let shard_counts = [ 1; 2; 4; 8; 16 ]

type series = { key : string; cross : float; skew : float }

let series_list =
  [
    { key = "x0"; cross = 0.0; skew = 0.0 };
    { key = "x5"; cross = 0.05; skew = 0.0 };
    { key = "x20"; cross = 0.20; skew = 0.0 };
    { key = "x5skew"; cross = 0.05; skew = 0.99 };
  ]

(* Offered rate per unit, just under the d8mf16 single-unit saturation
   knee (~162k/s in ablation-saturation): at 0% cross-shard every unit
   runs at its own knee, so the aggregate curve measures scale-out, not
   queueing collapse. *)
let per_unit_rate = 150_000.0

(* Each point offers its rate for a window of simulated time (the
   saturation sweep's discipline) — the count grows with the aggregate
   rate so every unit sees the same per-unit workload. *)
let window_ms = 8.0

let count_for ~scale nshards =
  Runner.scaled scale
    (Stdlib.max 400
       (int_of_float (per_unit_rate *. float_of_int nshards *. window_ms /. 1000.0)))

(* Range map with human-readable split points: shard i >= 1 owns keys
   from "s%02i"; Shard.key_for derives O(1) shard-targeted keys from the
   same splits, so the generator never rejection-samples. *)
let map_for nshards =
  Shard.make
    ~policy:
      (Shard.Range (Array.init (nshards - 1) (fun i -> Printf.sprintf "s%02d" (i + 1))))
    ~shards:nshards ()

(* Cross-shard transactions span two shards: the common case for a
   cross-partition write (move/transfer), and the cheapest point of the
   2PC price — wider transactions only add more of the same rounds. *)
let txn_keys = 2

let shard_task ~knobs ~scale ~series ~nshards ~seed () =
  let map = map_for nshards in
  let world =
    Runner.fresh_world ~fi:1 ~seed ~n_participants:nshards ~shard_map:map
      ~max_in_flight:8 ~batch_min_fill:16 ~batch_hold:(Time.of_ms 0.25) ()
  in
  let engine = world.Runner.engine in
  let router = Deployment.shard_router world.Runner.dep in
  let count = count_for ~scale nshards in
  let gen =
    Loadgen.create
      ~rng:(Bp_util.Rng.split (Engine.rng engine))
      {
        Loadgen.process =
          Loadgen.Poisson { rate_per_sec = per_unit_rate *. float_of_int nshards };
        clients = 200_000;
        skew = knobs.Knobs.skew;
        count;
      }
  in
  let mix =
    Loadgen.mix
      ~rng:(Bp_util.Rng.split (Engine.rng engine))
      {
        Loadgen.shards = nshards;
        cross_fraction = series.cross;
        txn_keys;
        shard_skew = series.skew;
      }
  in
  let r =
    Loadgen.run engine ~gen ~submit:(fun i ~client ~on_done ->
        let targets = Loadgen.draw_targets mix in
        let ops =
          List.map
            (fun s ->
              (Shard.key_for map ~shard:s ~salt:i, Runner.client_payload ~client i))
            targets
        in
        (* An abort still completes the arrival — the downgrade is the
           deterministic no-op outcome, counted by the router's stats. *)
        Shard.submit router ~on_aborted:on_done ~on_done ops)
  in
  (* 2PC atomicity: once the load has drained, every prepare must have
     been decided, so no unit may still hold a staged write. *)
  let staged_left =
    List.init nshards (fun p -> Api.xs_staged (Deployment.api world.Runner.dep p))
    |> List.fold_left ( + ) 0
  in
  if staged_left <> 0 then
    failwith
      (Printf.sprintf "ablation-shard: series %s, %d shards: %d prepares left staged"
         series.key nshards staged_left);
  let st = Shard.stats router in
  let p pct = Bp_util.Stats.percentile r.Loadgen.latencies pct in
  [
    series.key;
    string_of_int nshards;
    Printf.sprintf "%.0f/s" (per_unit_rate *. float_of_int nshards);
    Printf.sprintf "%.0f/s" r.Loadgen.steady_per_sec;
    Report.ms r.Loadgen.drain_ms;
    Report.ms (p 50.0);
    Report.ms (p 99.0);
    string_of_int st.Shard.cross_shard;
    string_of_int st.Shard.aborted;
  ]

let shard_merge rows =
  [
    {
      Report.id = "ablation-shard";
      title = "Keyspace sharding: 1..16 units, cross-shard BFT commit";
      paper_ref =
        "beyond the paper (ROADMAP: multi-unit sharding); per-unit config = \
         d8mf16 from ablation-saturation, topology = Table I tiled to one \
         DC per unit";
      header =
        [
          "series"; "shards"; "offered"; "steady"; "drain ms"; "p50 ms";
          "p99 ms"; "cross"; "abort";
        ];
      rows;
      notes =
        [
          Printf.sprintf
            "offered load = %.0f/s per unit (just under the d8mf16 knee); x0/x5/x20 = cross-shard fraction, x5skew adds zipf(0.99) shard popularity"
            per_unit_rate;
          "cross-shard txns span 2 shards; every 2PC step (prepare, vote, decide) is a committed record, votes/decides ride the communication path";
          "scale-out = the x0 rows' steady column read down from 1 to 16 units; it is simulated-time throughput, and one simulation runs all of a world's units on one core";
          "abort = timeout/NO-vote downgrades (deterministic no-ops); a run fails if any prepare is left staged after the drain";
          "steady = completions landed by the last arrival / the arrival window; drain ms = last arrival to last completion, where a cross mix pays its two WAN rounds (~300 ms on tiled Table I) while p50 stays at the local-commit floor; at a small --scale the window is shorter than one local commit and steady reads 0/s";
        ];
    };
  ]

let plan ~knobs ~scale =
  let tasks =
    List.concat
      (List.mapi
         (fun si series ->
           List.mapi
             (fun ci nshards ->
               let seed = Int64.of_int (11_000 + (100 * si) + ci) in
               fun () -> shard_task ~knobs ~scale ~series ~nshards ~seed ())
             shard_counts)
         series_list)
  in
  Runner.Plan { tasks; merge = shard_merge }
