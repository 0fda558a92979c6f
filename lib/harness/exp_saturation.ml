open Bp_sim
open Blockplane

(* Saturation sweep: open-loop load from a zipf-skewed modeled client
   population (Loadgen) against the pipelined primary, rate x depth. It
   drives every pipeline depth past its knee and reports the
   throughput-vs-tail curve, the batch fill the adaptive cut policy
   achieves, and the saturation knee (highest offered rate whose p99
   still meets the SLO). Under --skew 0 its d8 rows are the group-commit
   knee of one unit under uniform Poisson load.

   The open question this sweep answers (and the pipeline ablation
   cannot): at depth 8 the cut-on-any-signal policy degenerates under
   open-loop load into streams of tiny batches — a free slot plus any
   queued request cuts immediately — so the depth buys little. The
   min-fill/hold policy rows quantify the repair. *)

let stock_rates = [ 5_000.0; 20_000.0; 50_000.0; 100_000.0; 200_000.0 ]

(* --load-rate replaces the sweep with a single probed rate. *)
let rates (knobs : Knobs.t) =
  match knobs.load_rate with Some r -> [ r ] | None -> stock_rates

let depths = [ 1; 2; 4; 8 ]

(* Modeled client population: large enough that per-client state would
   be untenable (the point of Loadgen's O(1) arrival processes), skewed
   like YCSB unless --skew overrides. *)
let clients = 200_000

(* --load-trace selects the arrival-process family; all three shapes
   offer the same long-run rate so the rate column keeps its meaning.
   Bursty: 2 ms on / 2 ms off phases at double intensity. Diurnal: a
   day-curve compressed to one 10 ms cycle, with a quiet quarter. *)
let process_for (knobs : Knobs.t) rate =
  match knobs.load_shape with
  | `Poisson -> Loadgen.Poisson { rate_per_sec = rate }
  | `Bursty -> Loadgen.Bursty { rate_on = 2.0 *. rate; on_ms = 2.0; off_ms = 2.0 }
  | `Diurnal ->
      Loadgen.Diurnal
        {
          base_rate = rate;
          trace = [| (2.5, 0.5); (2.5, 1.5); (2.5, 2.0); (2.5, 0.0) |];
        }

(* Tail SLO defining the saturation knee. ~5x the unloaded local-commit
   p99 (~2 ms): past this, queueing delay owns the tail. *)
let slo_p99_ms = 10.0

(* Arrival window: each point offers its rate for a fixed stretch of
   simulated time rather than a fixed op count, so past-saturation
   points actually accumulate the backlog that blows the tail — with a
   fixed count, a 200k/s burst is over in a few ms and drains before
   p99 can feel it. *)
let window_ms = 10.0
let count_for ~scale rate =
  Runner.scaled scale
    (Stdlib.max 600 (int_of_float (rate *. window_ms /. 1000.0)))

type series = { key : string; depth : int; min_fill : int; hold_ms : float }

let series_list =
  List.map
    (fun d ->
      { key = Printf.sprintf "d%d" d; depth = d; min_fill = 1; hold_ms = 0.0 })
    depths
  (* The adaptive cut policy at full depth: hold a cut until 16 requests
     queue, bounded by a hold timer well under the commit latency. *)
  @ [ { key = "d8mf16"; depth = 8; min_fill = 16; hold_ms = 0.25 } ]

let mean_fill (bs : Bp_pbft.Replica.batch_stats) =
  if bs.Bp_pbft.Replica.batches_cut = 0 then 0.0
  else
    float_of_int bs.Bp_pbft.Replica.ops_proposed
    /. float_of_int bs.Bp_pbft.Replica.batches_cut

let sat_task ~knobs ~scale ~series ~rate ~seed () =
  let world =
    Runner.fresh_world ~fi:1 ~seed ~n_participants:1
      ~max_in_flight:series.depth ~batch_min_fill:series.min_fill
      ?batch_hold:
        (if series.hold_ms > 0.0 then Some (Time.of_ms series.hold_ms) else None)
      ()
  in
  let engine = world.Runner.engine in
  let api = Deployment.api world.Runner.dep 0 in
  let count = count_for ~scale rate in
  let gen =
    Loadgen.create
      ~rng:(Bp_util.Rng.split (Engine.rng engine))
      {
        Loadgen.process = process_for knobs rate;
        clients;
        skew = knobs.Knobs.skew;
        count;
      }
  in
  let r =
    Loadgen.run engine ~gen ~submit:(fun i ~client ~on_done ->
        Api.log_commit api (Runner.client_payload ~client i) ~on_done)
  in
  let p pct = Bp_util.Stats.percentile r.Loadgen.latencies pct in
  [
    series.key;
    Printf.sprintf "%.0f/s" rate;
    Printf.sprintf "%.0f/s" r.Loadgen.achieved_per_sec;
    Report.ms (p 50.0);
    Report.ms (p 95.0);
    Report.ms (p 99.0);
    Printf.sprintf "%.1f" (mean_fill (Api.batch_stats api));
    Printf.sprintf "%.2f" (Api.pipeline_occupancy api);
  ]

let sat_merge ~skew rows =
  [
    {
      Report.id = "ablation-saturation";
      title = "Saturation sweep: open-loop rate x pipeline depth";
      paper_ref =
        Printf.sprintf
          "extension of SVI-C / SVIII-A: 1 KB ops, one unit, zipf(%g) over 200k modeled clients"
          skew;
      header =
        [ "series"; "offered"; "achieved"; "p50 ms"; "p95 ms"; "p99 ms"; "fill"; "occ" ];
      rows;
      notes =
        [
          Printf.sprintf
            "saturation knee = highest offered rate with p99 <= %.0f ms; fill = mean requests per cut batch (max 64)"
            slo_p99_ms;
          "d8mf16 = depth 8 with batch_min_fill=16 / batch_hold=0.25ms instead of the seed's cut-on-any-signal policy";
          "arrivals stream through Loadgen: one pending arrival event per process at any instant, whatever the count";
        ];
    };
  ]

let plan ~knobs ~scale =
  let rates = rates knobs in
  let tasks =
    List.concat
      (List.mapi
         (fun si series ->
           List.mapi
             (fun ri rate ->
               let seed = Int64.of_int (9000 + (100 * si) + ri) in
               fun () -> sat_task ~knobs ~scale ~series ~rate ~seed ())
             rates)
         series_list)
  in
  Runner.Plan { tasks; merge = sat_merge ~skew:knobs.skew }
