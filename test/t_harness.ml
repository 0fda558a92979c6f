open Bp_harness

(* Parse the leading float out of a report cell like "61.0 (61)". *)
let cell_float s =
  match String.split_on_char ' ' (String.trim s) with
  | first :: _ -> (
      match float_of_string_opt first with
      | Some f -> f
      | None -> Alcotest.failf "cell %S is not numeric" s)
  | [] -> Alcotest.failf "empty cell"

let row_label r = List.nth r 0
let col r i = cell_float (List.nth r i)

let find_report id reports =
  match List.find_opt (fun r -> String.equal r.Report.id id) reports with
  | Some r -> r
  | None -> Alcotest.failf "report %s missing" id

let test_registry_complete () =
  let ids = List.map (fun e -> e.Experiments.id) Experiments.all in
  Alcotest.(check (list string)) "all paper artifacts present"
    [
      "table1"; "fig4"; "table2"; "fig5"; "fig6"; "fig7"; "fig8";
      "ablation-reads"; "ablation-batch"; "ablation-sig"; "ablation-loss";
      "ablation-load"; "ablation-saturation"; "ablation-pipeline";
      "ablation-verify"; "ablation-shard";
      "ablation-clustersend"; "locality"; "costs";
    ]
    ids;
  Alcotest.(check bool) "find works" true (Experiments.find "fig7" <> None);
  Alcotest.(check bool) "unknown id" true (Experiments.find "fig99" = None)

let test_table1_matches_paper () =
  let r = find_report "table1" (Exp_comm.table1 ()) in
  (* Spot-check the published matrix. *)
  let row name = List.find (fun row -> row_label row = name) r.Report.rows in
  Alcotest.(check (float 0.01)) "C-O" 19.0 (col (row "C") 2);
  Alcotest.(check (float 0.01)) "C-I" 130.0 (col (row "C") 4);
  Alcotest.(check (float 0.01)) "V-I" 70.0 (col (row "V") 4);
  Alcotest.(check (float 0.01)) "diagonal" 0.0 (col (row "O") 2)

let test_fig4_shapes () =
  let reports = Exp_local.fig4 ~scale:0.08 () in
  let lat = find_report "fig4a" reports and thr = find_report "fig4b" reports in
  let lat_of label = col (List.find (fun r -> row_label r = label) lat.Report.rows) 1 in
  let thr_of label = col (List.find (fun r -> row_label r = label) thr.Report.rows) 1 in
  (* Latency: ~1 ms at small sizes, growing at MB sizes. *)
  Alcotest.(check bool) "1KB ~1ms" true (lat_of "1 KB" < 2.5);
  Alcotest.(check bool) "2000KB well above 1KB" true
    (lat_of "2000 KB" > 4.0 *. lat_of "1 KB");
  (* Throughput: steep growth to 100 KB, then plateau-ish. *)
  Alcotest.(check bool) "100KB >> 1KB" true (thr_of "100 KB" > 20.0 *. thr_of "1 KB");
  Alcotest.(check bool) "plateau" true
    (thr_of "2000 KB" > 0.5 *. thr_of "1000 KB")

let test_table2_shape () =
  let r = find_report "table2" (Exp_local.table2 ~scale:0.2 ()) in
  let lats = List.map (fun row -> col row 3) r.Report.rows in
  let rec increasing = function
    | a :: b :: rest -> a <= b +. 0.01 && increasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "latency grows with n" true (increasing lats);
  let thrs = List.map (fun row -> col row 1) r.Report.rows in
  Alcotest.(check bool) "throughput falls with n" true
    (increasing (List.rev thrs))

let test_fig5_shape () =
  let r = find_report "fig5" (Exp_geo.fig5 ~scale:0.2 ()) in
  let v label = col (List.find (fun row -> row_label row = label) r.Report.rows) 1 in
  (* fg monotonicity at California, and the paper's crossing points. *)
  Alcotest.(check bool) "C(1)<C(2)<C(3)" true (v "C(1)" < v "C(2)" && v "C(2)" < v "C(3)");
  Alcotest.(check bool) "C(1) ~20-30" true (v "C(1)" >= 19.0 && v "C(1)" <= 30.0);
  Alcotest.(check bool) "V(3) ~80 best at fg=3" true
    (v "V(3)" < v "C(3)" && v "V(3)" < v "O(3)" && v "V(3)" < v "I(3)");
  Alcotest.(check bool) "I worst at fg=1" true
    (v "I(1)" > v "C(1)" && v "I(1)" > v "O(1)" && v "I(1)" > v "V(1)")

let test_fig6_shape () =
  let r = find_report "fig6" (Exp_comm.fig6 ~scale:0.2 ()) in
  let v label = col (List.find (fun row -> row_label row = label) r.Report.rows) 1 in
  Alcotest.(check bool) "CO smallest" true (v "CO" < v "CV" && v "CO" < v "VI");
  Alcotest.(check bool) "CI and OI largest" true
    (v "CI" > 120.0 && v "OI" > 120.0);
  Alcotest.(check bool) "CO close to paper 23.4" true (v "CO" >= 19.5 && v "CO" <= 27.0)

let test_fig7_ordering () =
  let r = find_report "fig7" (Exp_consensus.fig7 ~scale:0.2 ()) in
  List.iter
    (fun row ->
      let paxos = col row 1 and bp = col row 2 and pbft = col row 3 and hier = col row 4 in
      let leader = row_label row in
      Alcotest.(check bool) (leader ^ ": paxos <= hier") true (paxos <= hier +. 1.0);
      Alcotest.(check bool) (leader ^ ": hier <= bp-paxos") true (hier <= bp +. 1.0);
      Alcotest.(check bool) (leader ^ ": bp-paxos < pbft") true (bp < pbft);
      Alcotest.(check bool)
        (Printf.sprintf "%s: bp overhead %.1f vs %.1f modest" leader bp paxos)
        true
        (bp -. paxos < 25.0))
    r.Report.rows

let test_fig8_shapes () =
  let reports = Exp_geo.fig8 ~scale:0.25 () in
  let a = find_report "fig8a" reports and b = find_report "fig8b" reports in
  let first_region r = col (List.hd r.Report.rows) 1 in
  let last_region r = col (List.nth r.Report.rows (List.length r.Report.rows - 1)) 1 in
  Alcotest.(check bool) "8a: before ~20-40" true
    (first_region a >= 19.0 && first_region a <= 40.0);
  Alcotest.(check bool) "8a: after is higher (Virginia proofs)" true
    (last_region a >= 55.0 && last_region a <= 90.0);
  Alcotest.(check bool) "8b: before ~20-40" true
    (first_region b >= 19.0 && first_region b <= 40.0);
  Alcotest.(check bool) "8b: after ~70-85 at Virginia" true
    (last_region b >= 60.0 && last_region b <= 95.0);
  (* The takeover spike: some batch in 8b paid the detection timeout. *)
  let spike =
    List.exists (fun row -> col row 1 > 150.0) b.Report.rows
  in
  Alcotest.(check bool) "8b: takeover spike present" true spike

let test_locality_shape () =
  let r = find_report "locality" (Exp_locality.locality ~scale:0.3 ()) in
  let share label =
    let row = List.find (fun row -> row_label row = label) r.Report.rows in
    cell_float (String.map (fun c -> if c = '%' then ' ' else c) (List.nth row 3))
  in
  Alcotest.(check bool) "blockplane mostly local" true (share "blockplane-paxos" < 50.0);
  Alcotest.(check bool) "flat PBFT mostly wide-area" true (share "flat PBFT" > 80.0)

let test_costs_sanity () =
  let r = find_report "costs" (Exp_costs.costs ~scale:0.3 ()) in
  List.iter
    (fun row ->
      let msgs_commit = col row 3 and msgs_send = col row 5 in
      Alcotest.(check bool) "commit needs a protocol's worth of messages" true
        (msgs_commit > 10.0);
      Alcotest.(check bool) "send costs at least a commit" true
        (msgs_send >= msgs_commit *. 0.8))
    r.Report.rows;
  (* fg=1 must cost more than fg=0 at the same fi. *)
  let v label i = col (List.find (fun row -> row_label row = label) r.Report.rows) i in
  Alcotest.(check bool) "fg=1 sends cost more" true
    (v "fi=1 fg=1" 5 > v "fi=1 fg=0" 5)

let test_workload_open_loop () =
  (* The generator delivers exactly [count] requests at roughly the
     offered rate, and measures per-request latency. *)
  let engine = Bp_sim.Engine.create ~seed:95L () in
  let rng = Bp_util.Rng.create 96L in
  let inflight = ref 0 and peak = ref 0 in
  let r =
    Workload.open_loop engine ~rng ~rate_per_sec:1000.0 ~count:200
      ~submit:(fun _ ~on_done ->
        incr inflight;
        peak := Stdlib.max !peak !inflight;
        (* Simulated 5 ms service time. *)
        ignore
          (Bp_sim.Engine.schedule engine ~after:(Bp_sim.Time.of_ms 5.0) (fun () ->
               decr inflight;
               on_done ())))
  in
  Alcotest.(check int) "all completed" 200 (Bp_util.Stats.count r.Workload.latencies);
  Alcotest.(check (float 0.5)) "latency = service time" 5.0
    (Bp_util.Stats.mean r.Workload.latencies);
  (* 1000/s with 5 ms service => several overlapping requests. *)
  Alcotest.(check bool) "open loop overlaps" true (!peak >= 2);
  Alcotest.(check bool) "achieved near offered" true
    (r.Workload.achieved_per_sec > 700.0 && r.Workload.achieved_per_sec < 1400.0)

let test_runner_helpers () =
  Alcotest.(check int) "scaled floor" 1 (Runner.scaled 0.001 100);
  Alcotest.(check int) "scaled exact" 50 (Runner.scaled 0.5 100);
  Alcotest.(check int) "payload size" 1234 (String.length (Runner.payload ~size:1234 7));
  Alcotest.(check bool) "payloads distinct" true
    (Runner.payload ~size:64 1 <> Runner.payload ~size:64 2)

(* The whole stack is a deterministic simulation: rerunning an experiment
   at the same scale must reproduce every measured number bit for bit.
   This is the regression net for the hot-path optimizations — a perf
   change that perturbs virtual time shows up here as a diff, not as a
   silently shifted result. *)
let test_experiments_deterministic () =
  let render_all reports =
    String.concat "\n" (List.map Report.render reports)
  in
  let a = render_all (Exp_consensus.fig7 ~scale:0.2 ()) in
  let b = render_all (Exp_consensus.fig7 ~scale:0.2 ()) in
  Alcotest.(check string) "fig7 twice, identical" a b;
  let c = render_all (Exp_comm.fig6 ~scale:0.2 ()) in
  let d = render_all (Exp_comm.fig6 ~scale:0.2 ()) in
  Alcotest.(check string) "fig6 twice, identical" c d;
  (* fig7 exercises the paxos side and fig4 the PBFT local-commitment
     path, so both protocols' replicas are covered: any order-dependent
     container iteration reintroduced there shows up as a diff here. *)
  let e = render_all (Exp_local.fig4 ~scale:0.2 ()) in
  let f = render_all (Exp_local.fig4 ~scale:0.2 ()) in
  Alcotest.(check string) "fig4 twice, identical" e f

(* The verification caches are pure accelerators: zero-capacity caches
   (--no-cache, [Knobs.t.cache = false]) must reproduce every experiment
   table byte for byte. Signing never depends on a cache, so not even a
   signature value moves. *)
let test_experiments_identical_without_cache () =
  let render_all reports =
    String.concat "\n" (List.map Report.render reports)
  in
  let knobs = { Knobs.default with cache = false } in
  let on4 = render_all (Exp_local.fig4 ~scale:0.08 ()) in
  let off4 = render_all (Exp_local.fig4 ~knobs ~scale:0.08 ()) in
  Alcotest.(check string) "fig4 identical with caches off" on4 off4;
  let on5 = render_all (Exp_geo.fig5 ~scale:0.2 ()) in
  let off5 = render_all (Exp_geo.fig5 ~knobs ~scale:0.2 ()) in
  Alcotest.(check string) "fig5 identical with caches off" on5 off5

(* The harness defaults to pipeline depth 1, and at depth 1 the pipelined
   replica is the seed's stop-and-wait one: fig4 at scale 0.08 must
   render byte-for-byte what the pre-pipeline tree rendered. Any change
   to these bytes means the "depth 1 = baseline" contract broke — treat
   a diff here as a bug, not as a table to re-pin. *)
let fig4_depth1_golden =
  "== fig4a: Local commitment latency vs batch size ==\n\
   \   (Fig. 4(a), SVIII-A: Virginia, fi=1, 4 nodes)\n\
   +------------+-----------------------+--------------------+\n\
   | batch size | latency ms (measured) | latency ms (paper) |\n\
   +============+=======================+====================+\n\
   | 1 KB       | 1.3                   | <1                 |\n\
   | 10 KB      | 1.3                   | <1                 |\n\
   | 100 KB     | 1.6                   | ~1.2               |\n\
   | 500 KB     | 3.9                   | -                  |\n\
   | 1000 KB    | 7.5                   | 4.5                |\n\
   | 2000 KB    | 15.5                  | 8.2                |\n\
   +------------+-----------------------+--------------------+\n\
   \   note: expected shape: ~1 ms up to 100 KB, then growing with NIC \
   serialization\n\
   == fig4b: Local commitment throughput vs batch size ==\n\
   \   (Fig. 4(b), SVIII-A)\n\
   +------------+-----------------+--------------+\n\
   | batch size | MB/s (measured) | MB/s (paper) |\n\
   +============+=================+==============+\n\
   | 1 KB       | 0.8             | ~1.4         |\n\
   | 10 KB      | 7.8             | -            |\n\
   | 100 KB     | 61.5            | 83           |\n\
   | 500 KB     | 129.0           | -            |\n\
   | 1000 KB    | 132.8           | ~215         |\n\
   | 2000 KB    | 129.0           | ~240         |\n\
   +------------+-----------------+--------------+\n\
   \   note: expected shape: steep growth to 100 KB (~60x from 1 KB), \
   +~160% to 1 MB, ~+10% to 2 MB\n"

let test_fig4_depth1_matches_seed () =
  let knobs = { Knobs.default with pipeline = 1 } in
  let rendered =
    String.concat ""
      (List.map Report.render (Exp_local.fig4 ~knobs ~scale:0.08 ()))
  in
  Alcotest.(check string) "depth-1 fig4 bytes = pre-pipeline seed"
    fig4_depth1_golden rendered

(* The ablation-load table was recorded while open_loop pre-scheduled
   every arrival eagerly; the streaming scheduler draws the same gap
   sequence from the same rng split, so these bytes must not move. A
   diff here means the streaming conversion perturbed arrival times or
   draw order — a bug, not a table to re-pin. *)
let ablation_load_golden =
  "== ablation-load: Open-loop offered load vs local-commit latency ==\n\
   \   (extension: the queueing knee of group commit (SVI-C), Poisson \
   arrivals, 1 KB ops)\n\
   +---------+----------+---------+--------+\n\
   | offered | achieved | mean ms | p99 ms |\n\
   +=========+==========+=========+========+\n\
   | 1000/s  | 1046/s   | 1.3     | 1.3    |\n\
   | 5000/s  | 4946/s   | 1.3     | 1.3    |\n\
   | 20000/s | 17149/s  | 1.4     | 1.7    |\n\
   | 40000/s | 25708/s  | 1.4     | 1.7    |\n\
   | 80000/s | 34571/s  | 1.7     | 2.0    |\n\
   +---------+----------+---------+--------+\n\
   \   note: group commit absorbs load almost flat until the unit \
   saturates, then queueing delay takes over\n"

let test_ablation_load_matches_eager_seed () =
  let rendered =
    String.concat ""
      (List.map Report.render (Exp_ablation.load ~scale:0.25 ()))
  in
  Alcotest.(check string) "streaming open_loop bytes = eager seed"
    ablation_load_golden rendered

let test_saturation_shape () =
  let reports = Exp_saturation.saturation ~scale:0.1 () in
  let r = find_report "ablation-saturation" reports in
  (* 5 series (d1 d2 d4 d8 d8mf16) x 5 rates. *)
  Alcotest.(check int) "25 rows" 25 (List.length r.Report.rows);
  let metric name =
    match List.assoc_opt name r.Report.metrics with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing" name
  in
  (* The generator never holds more than one pending arrival per
     process — the O(1)-heap contract of the streaming scheduler. *)
  Alcotest.(check (float 0.0)) "O(1) arrival heap occupancy" 1.0
    (metric "peak_arrivals_pending");
  List.iter
    (fun series ->
      Alcotest.(check bool)
        (series ^ " knee positive")
        true
        (metric (series ^ "_saturation_knee_rps") > 0.0))
    [ "d1"; "d2"; "d4"; "d8"; "d8mf16" ];
  (* Deeper pipelines must not lose to shallow ones at the top rate, and
     the min-fill/hold cut policy must repair depth 8's degenerate tiny
     batches (the regression this experiment exists to catch). *)
  let top s = metric (s ^ "_top_achieved_rps") in
  Alcotest.(check bool) "d8 >= d2 at top rate" true
    (top "d8" >= 0.95 *. top "d2");
  Alcotest.(check bool) "d8 >= d1 at top rate" true (top "d8" >= top "d1");
  Alcotest.(check bool) "min-fill policy repairs depth 8" true
    (top "d8mf16" >= 0.95 *. top "d8");
  (* Default policy at depth 8 degrades into small batches under
     open-loop load; the adaptive policy holds fill up. *)
  Alcotest.(check bool) "default d8 fill degenerates vs d1" true
    (metric "d8_top_mean_fill" < metric "d1_top_mean_fill")

(* --load-rate collapses the sweep to one probed rate per series;
   --load-trace / --skew reshape the arrival process. *)
let test_saturation_load_knobs () =
  let knobs =
    {
      Knobs.default with
      load_rate = Some 20_000.0;
      load_shape = `Bursty;
      skew = 0.0;
    }
  in
  let r =
    find_report "ablation-saturation"
      (Exp_saturation.saturation ~knobs ~scale:0.05 ())
  in
  Alcotest.(check int) "one rate x 5 series" 5 (List.length r.Report.rows);
  List.iter
    (fun row -> Alcotest.(check string) "probed rate" "20000/s" (List.nth row 1))
    r.Report.rows

let test_pipeline_ablation_shape () =
  let r = find_report "pipeline" (Exp_local.pipeline ~scale:0.3 ()) in
  Alcotest.(check (list string)) "one row per depth" [ "1"; "2"; "4"; "8" ]
    (List.map row_label r.Report.rows);
  let d1 = List.hd r.Report.rows in
  Alcotest.(check string) "depth 1 is its own baseline" "1.00x" (List.nth d1 2);
  let metric name =
    match List.assoc_opt name r.Report.metrics with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing" name
  in
  (* The acceptance bar: the default depth beats stop-and-wait by >=1.3x
     in closed-loop throughput, with the window actually occupied. *)
  Alcotest.(check bool)
    (Printf.sprintf "depth-8 speedup %.2fx >= 1.3" (metric "d8_speedup_vs_d1"))
    true
    (metric "d8_speedup_vs_d1" >= 1.3);
  Alcotest.(check bool) "depth-8 occupancy > 2" true
    (metric "d8_pipeline_occupancy" > 2.0);
  Alcotest.(check bool) "depth-1 occupancy = 1" true
    (abs_float (metric "d1_pipeline_occupancy" -. 1.0) < 0.01);
  Alcotest.(check bool) "latency percentiles recorded" true
    (metric "d8_p99_ms" >= metric "d8_p50_ms")

(* A run-wide min-fill larger than a world's batch_max clamps to it, as
   run-wide shards clamp to participants: the batch_max = 1 ablations
   complete under the d8mf16 knobs instead of failing Config.make. *)
let test_batch_knobs_clamp_to_batch_max () =
  let knobs =
    {
      Knobs.default with
      batch_min_fill = Some 16;
      batch_hold = Some (Bp_sim.Time.of_ms 0.25);
    }
  in
  List.iter
    (fun (id, reports) ->
      Alcotest.(check bool) (id ^ " completes") true
        ((find_report id reports).Report.rows <> []))
    [
      ("pipeline", Exp_local.pipeline ~knobs ~scale:0.1 ());
      ("verify", Exp_local.verify_ablation ~knobs ~scale:0.1 ());
    ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "harness",
      [
        tc "registry complete" test_registry_complete;
        tc "table1 matches paper" test_table1_matches_paper;
        tc "fig4 shapes" test_fig4_shapes;
        tc "fig4 depth-1 bytes = seed" test_fig4_depth1_matches_seed;
        tc "pipeline ablation shape" test_pipeline_ablation_shape;
        tc "batch knobs clamp to batch_max" test_batch_knobs_clamp_to_batch_max;
        tc "table2 shape" test_table2_shape;
        tc "fig5 shape" test_fig5_shape;
        tc "fig6 shape" test_fig6_shape;
        tc "fig7 ordering" test_fig7_ordering;
        tc "fig8 shapes" test_fig8_shapes;
        tc "locality shape" test_locality_shape;
        tc "costs sanity" test_costs_sanity;
        tc "workload open loop" test_workload_open_loop;
        tc "ablation-load bytes = eager seed" test_ablation_load_matches_eager_seed;
        tc "saturation sweep shape" test_saturation_shape;
        tc "saturation load knobs" test_saturation_load_knobs;
        tc "runner helpers" test_runner_helpers;
        tc "experiments deterministic" test_experiments_deterministic;
        tc "experiments identical without cache"
          test_experiments_identical_without_cache;
      ] );
  ]
