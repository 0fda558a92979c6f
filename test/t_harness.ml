open Bp_harness

(* Parse the leading float out of a report cell like "61.0 (61)". *)
let cell_float s =
  match String.split_on_char ' ' (String.trim s) with
  | first :: _ -> (
      match float_of_string_opt first with
      | Some f -> f
      | None -> Alcotest.failf "cell %S is not numeric" s)
  | [] -> Alcotest.failf "empty cell"

(* A cell whose number carries a unit suffix: "5000/s", "1.32x", "12%". *)
let unit_float s =
  cell_float (String.map (fun c -> if c = '/' || c = 'x' || c = '%' then ' ' else c) s)

let row_label r = List.nth r 0
let col r i = cell_float (List.nth r i)

(* Run a registered experiment the way blockplane-cli does: look it up
   in the registry and execute its plan. *)
let run ?knobs id ~scale =
  match Experiments.find id with
  | Some e -> Experiments.run ?knobs e ~scale
  | None -> Alcotest.failf "experiment %s not registered" id

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
      "ablation-saturation"; "ablation-pipeline"; "ablation-shard";
      "locality"; "costs";
    ]
    ids;
  Alcotest.(check bool) "find works" true (Experiments.find "fig7" <> None);
  Alcotest.(check bool) "unknown id" true (Experiments.find "fig99" = None);
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " is gone") true (Experiments.find id = None))
    [ "ablation-load"; "ablation-verify"; "ablation-clustersend" ]

let test_table1_matches_paper () =
  let r = find_report "table1" (run "table1" ~scale:1.0) in
  (* Spot-check the published matrix. *)
  let row name = List.find (fun row -> row_label row = name) r.Report.rows in
  Alcotest.(check (float 0.01)) "C-O" 19.0 (col (row "C") 2);
  Alcotest.(check (float 0.01)) "C-I" 130.0 (col (row "C") 4);
  Alcotest.(check (float 0.01)) "V-I" 70.0 (col (row "V") 4);
  Alcotest.(check (float 0.01)) "diagonal" 0.0 (col (row "O") 2)

let test_fig4_shapes () =
  let reports = run "fig4" ~scale:0.08 in
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
  let r = find_report "table2" (run "table2" ~scale:0.2) in
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
  let r = find_report "fig5" (run "fig5" ~scale:0.2) in
  let v label = col (List.find (fun row -> row_label row = label) r.Report.rows) 1 in
  (* fg monotonicity at California, and the paper's crossing points. *)
  Alcotest.(check bool) "C(1)<C(2)<C(3)" true (v "C(1)" < v "C(2)" && v "C(2)" < v "C(3)");
  Alcotest.(check bool) "C(1) ~20-30" true (v "C(1)" >= 19.0 && v "C(1)" <= 30.0);
  Alcotest.(check bool) "V(3) ~80 best at fg=3" true
    (v "V(3)" < v "C(3)" && v "V(3)" < v "O(3)" && v "V(3)" < v "I(3)");
  Alcotest.(check bool) "I worst at fg=1" true
    (v "I(1)" > v "C(1)" && v "I(1)" > v "O(1)" && v "I(1)" > v "V(1)")

let test_fig6_shape () =
  let r = find_report "fig6" (run "fig6" ~scale:0.2) in
  let v label = col (List.find (fun row -> row_label row = label) r.Report.rows) 1 in
  Alcotest.(check bool) "CO smallest" true (v "CO" < v "CV" && v "CO" < v "VI");
  Alcotest.(check bool) "CI and OI largest" true
    (v "CI" > 120.0 && v "OI" > 120.0);
  Alcotest.(check bool) "CO close to paper 23.4" true (v "CO" >= 19.5 && v "CO" <= 27.0)

let test_fig7_ordering () =
  let r = find_report "fig7" (run "fig7" ~scale:0.2) in
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
  let reports = run "fig8" ~scale:0.25 in
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
  let r = find_report "locality" (run "locality" ~scale:0.3) in
  let share label =
    unit_float (List.nth (List.find (fun row -> row_label row = label) r.Report.rows) 3)
  in
  Alcotest.(check bool) "blockplane mostly local" true (share "blockplane-paxos" < 50.0);
  Alcotest.(check bool) "flat PBFT mostly wide-area" true (share "flat PBFT" > 80.0)

let test_costs_sanity () =
  let r = find_report "costs" (run "costs" ~scale:0.3) in
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
  (* The open-loop generator delivers exactly [count] requests at roughly
     the offered rate, and measures per-request latency. *)
  let engine = Bp_sim.Engine.create ~seed:95L () in
  let spec =
    {
      Loadgen.process = Loadgen.Poisson { rate_per_sec = 1000.0 };
      clients = 1;
      skew = 0.0;
      count = 200;
    }
  in
  let gen = Loadgen.create ~rng:(Bp_util.Rng.create 96L) spec in
  let service = Bp_sim.Time.of_ms 5.0 in
  let inflight = ref 0 and peak = ref 0 in
  let r =
    Loadgen.run engine ~gen ~submit:(fun _ ~client:_ ~on_done ->
        incr inflight;
        peak := Stdlib.max !peak !inflight;
        ignore
          (Bp_sim.Engine.schedule engine ~after:service (fun () ->
               decr inflight;
               on_done ())))
  in
  Alcotest.(check int) "all completed" 200 (Bp_util.Stats.count r.Loadgen.latencies);
  Alcotest.(check (float 0.5)) "latency = service time" 5.0
    (Bp_util.Stats.mean r.Loadgen.latencies);
  (* 1000/s with 5 ms service => several overlapping requests. *)
  Alcotest.(check bool) "open loop overlaps" true (!peak >= 2);
  Alcotest.(check bool) "achieved near offered" true
    (r.Loadgen.achieved_per_sec > 700.0 && r.Loadgen.achieved_per_sec < 1400.0);
  (* With a fixed service time every completion instant follows from the
     eager plan: steady counts the arrivals served by the last arrival
     over the arrival window, and the drain is one service time. *)
  let plan = Loadgen_ref.plan ~rng:(Bp_util.Rng.create 96L) spec in
  let first = plan.(0).Loadgen_ref.at and last = plan.(199).Loadgen_ref.at in
  let served =
    Array.fold_left
      (fun n a ->
        if Bp_sim.Time.(add a.Loadgen_ref.at service <= last) then n + 1 else n)
      0 plan
  in
  Alcotest.(check bool) "some but not all served in the window" true
    (served > 0 && served < 200);
  Alcotest.(check (float 1e-6)) "steady = served / arrival window"
    (float_of_int served /. Bp_sim.Time.to_sec (Bp_sim.Time.diff last first))
    r.Loadgen.steady_per_sec;
  Alcotest.(check (float 1e-6)) "drain = one service time" 5.0 r.Loadgen.drain_ms

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
  let a = render_all (run "fig7" ~scale:0.2) in
  let b = render_all (run "fig7" ~scale:0.2) in
  Alcotest.(check string) "fig7 twice, identical" a b;
  let c = render_all (run "fig6" ~scale:0.2) in
  let d = render_all (run "fig6" ~scale:0.2) in
  Alcotest.(check string) "fig6 twice, identical" c d;
  (* fig7 exercises the paxos side and fig4 the PBFT local-commitment
     path, so both protocols' replicas are covered: any order-dependent
     container iteration reintroduced there shows up as a diff here. *)
  let e = render_all (run "fig4" ~scale:0.2) in
  let f = render_all (run "fig4" ~scale:0.2) in
  Alcotest.(check string) "fig4 twice, identical" e f

(* Runner.plan's contract at any -j: every registered experiment renders
   the same bytes at [~jobs:1] as at [~jobs:2]. bplint's
   R6-planescape checks the plan-building code for shared writes; this
   checks the output the tables are made of. *)
let test_experiments_same_at_any_jobs () =
  let render_all jobs =
    List.map
      (fun (e : Experiments.t) ->
        ( e.Experiments.id,
          String.concat ""
            (List.map Report.render (Experiments.run ~jobs e ~scale:0.05)) ))
      Experiments.all
  in
  let seq = render_all 1 in
  let par = render_all 2 in
  List.iter2
    (fun (id, a) (_, b) ->
      Alcotest.(check string) (id ^ ": -j 1 == -j 2, byte-identical") a b)
    seq par

(* The verification caches are pure accelerators: a deployment built
   with zero-capacity caches ([Deployment.create ~cache:false]) runs the
   same simulation as a default one. Signing never depends on a cache,
   so every completion time, log digest and app digest matches, while
   only the default world's node caches record verify hits. *)
let test_experiments_identical_without_cache () =
  let open Blockplane in
  let trace ?cache ~n_participants ~fg drive =
    let engine = Bp_sim.Engine.create ~seed:4242L () in
    let net = Bp_sim.Network.create engine Bp_sim.Topology.aws_paper () in
    let dep =
      Deployment.create ~network:net ~n_participants ~fi:1 ~fg ?cache
        ~app:(module App.Null) ()
    in
    let events = ref [] in
    let stamp what () =
      events := (what, Bp_sim.Time.to_ns (Bp_sim.Engine.now engine)) :: !events
    in
    drive dep stamp;
    Bp_sim.Engine.run ~until:(Bp_sim.Time.of_sec 3.0) engine;
    let nodes =
      List.concat_map
        (fun p -> Array.to_list (Deployment.nodes_of dep p))
        (List.init n_participants Fun.id)
    in
    let digests =
      List.map
        (fun n ->
          ( Bp_storage.Log_store.last_digest (Unit_node.log n),
            Unit_node.app_digest n ))
        nodes
    in
    let hits =
      List.fold_left
        (fun acc n ->
          acc
          + (Bp_crypto.Verify_cache.instance_counters (Unit_node.vcache n))
              .Bp_crypto.Verify_cache.verify_hits)
        0 nodes
    in
    (List.rev !events, digests, hits)
  in
  let same_without_cache what ~n_participants ~fg drive =
    let on_events, on_digests, on_hits = trace ~n_participants ~fg drive in
    let off_events, off_digests, off_hits =
      trace ~cache:false ~n_participants ~fg drive
    in
    Alcotest.(check bool) (what ^ ": work done") true (on_events <> []);
    Alcotest.(check (list (pair string int)))
      (what ^ ": completion times") on_events off_events;
    Alcotest.(check (list (pair string string)))
      (what ^ ": log and app digests") on_digests off_digests;
    Alcotest.(check bool) (what ^ ": default caches hit") true (on_hits > 0);
    Alcotest.(check int) (what ^ ": cache-off hits") 0 off_hits
  in
  same_without_cache "fi=1 local unit" ~n_participants:1 ~fg:0 (fun dep stamp ->
      let api = Deployment.api dep 0 in
      List.iteri
        (fun i size ->
          Api.log_commit api (Runner.payload ~size i)
            ~on_done:(stamp (Printf.sprintf "commit %d" i)))
        [ 1024; 1024; 102_400; 102_400 ]);
  same_without_cache "fi=fg=1 four participants" ~n_participants:4 ~fg:1
    (fun dep stamp ->
      for p = 0 to 3 do
        let api = Deployment.api dep p in
        Api.on_receive api (fun ~src payload ->
            stamp (Printf.sprintf "%d<-%d %s" p src payload) ());
        Api.log_commit api (Runner.payload ~size:1024 p)
          ~on_done:(stamp (Printf.sprintf "commit %d" p));
        Api.send api ~dest:((p + 1) mod 4) (Printf.sprintf "m%d" p)
          ~on_done:(stamp (Printf.sprintf "sent %d" p))
      done)

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
  let rendered = String.concat "" (List.map Report.render (run "fig4" ~scale:0.08)) in
  Alcotest.(check string) "depth-1 fig4 bytes = pre-pipeline seed"
    fig4_depth1_golden rendered

(* Open-loop Poisson load from Loadgen against one unit, end to end at a
   fixed scale: the stop-and-wait (d1) and depth-8 (d8) rows of the
   saturation sweep at one probed rate, uniform clients. Every cell is a
   deterministic simulated-time result, so a diff is a behaviour change
   in the commit path or in the arrival stream; re-pin it only with that
   change explained. *)
let test_ablation_load_golden () =
  let knobs = { Knobs.default with skew = 0.0; load_rate = Some 20_000.0 } in
  let r =
    find_report "ablation-saturation"
      (run ~knobs "ablation-saturation" ~scale:0.25)
  in
  Alcotest.(check (list (list string))) "d1 and d8 rows"
    [
      [ "d1"; "20000/s"; "15353/s"; "1.7"; "2.0"; "2.1"; "12.5"; "1.00" ];
      [ "d8"; "20000/s"; "18807/s"; "1.3"; "1.7"; "1.8"; "2.1"; "7.00" ];
    ]
    (List.filter
       (fun row -> List.mem (row_label row) [ "d1"; "d8" ])
       r.Report.rows)

let test_saturation_shape () =
  let reports = run "ablation-saturation" ~scale:0.1 in
  let r = find_report "ablation-saturation" reports in
  (* 5 series (d1 d2 d4 d8 d8mf16) x 5 rates. *)
  Alcotest.(check int) "25 rows" 25 (List.length r.Report.rows);
  (* Rows: series, offered, achieved, p50, p95, p99, fill, occupancy. *)
  let series_rows s = List.filter (fun row -> row_label row = s) r.Report.rows in
  (* The saturation knee of the table's first note: the highest offered
     rate whose p99 meets the 10 ms SLO. *)
  let knee s =
    List.fold_left
      (fun acc row ->
        if col row 5 <= 10.0 then Float.max acc (unit_float (List.nth row 1))
        else acc)
      0.0 (series_rows s)
  in
  List.iter
    (fun series ->
      Alcotest.(check bool) (series ^ " knee positive") true (knee series > 0.0))
    [ "d1"; "d2"; "d4"; "d8"; "d8mf16" ];
  (* Deeper pipelines must not lose to shallow ones at the top rate, and
     the min-fill/hold cut policy must repair depth 8's degenerate tiny
     batches (the regression this experiment exists to catch). *)
  let top_row s = List.hd (List.rev (series_rows s)) in
  let top s = unit_float (List.nth (top_row s) 2) in
  Alcotest.(check bool) "d8 >= d2 at top rate" true
    (top "d8" >= 0.95 *. top "d2");
  Alcotest.(check bool) "d8 >= d1 at top rate" true (top "d8" >= top "d1");
  Alcotest.(check bool) "min-fill policy repairs depth 8" true
    (top "d8mf16" >= 0.95 *. top "d8");
  (* Default policy at depth 8 degrades into small batches under
     open-loop load; the adaptive policy holds fill up. *)
  Alcotest.(check bool) "default d8 fill degenerates vs d1" true
    (col (top_row "d8") 6 < col (top_row "d1") 6)

(* --load-rate collapses the sweep to one probed rate per series;
   --load-trace / --skew reshape the arrival process. *)
let test_saturation_load_knobs () =
  let knobs =
    { Knobs.load_rate = Some 20_000.0; load_shape = `Bursty; skew = 0.0 }
  in
  let r =
    find_report "ablation-saturation"
      (run ~knobs "ablation-saturation" ~scale:0.05)
  in
  Alcotest.(check int) "one rate x 5 series" 5 (List.length r.Report.rows);
  List.iter
    (fun row -> Alcotest.(check string) "probed rate" "20000/s" (List.nth row 1))
    r.Report.rows

let test_pipeline_ablation_shape () =
  let r = find_report "pipeline" (run "ablation-pipeline" ~scale:0.3) in
  (* Rows: depth, MB/s, speedup, mean ms, p95 ms, occupancy. *)
  Alcotest.(check (list string)) "one row per depth" [ "1"; "2"; "4"; "8" ]
    (List.map (fun row -> List.nth row 0) r.Report.rows);
  let row d = List.find (fun row -> List.nth row 0 = d) r.Report.rows in
  let speedup d = unit_float (List.nth (row d) 2)
  and occupancy d = col (row d) 5 in
  Alcotest.(check string) "depth 1 is the baseline" "1.00x"
    (List.nth (row "1") 2);
  Alcotest.(check bool) "depth-1 occupancy = 1" true
    (abs_float (occupancy "1" -. 1.0) < 0.01);
  (* The acceptance bar: the default depth beats stop-and-wait by >=1.3x
     in closed-loop throughput, with the window actually occupied. *)
  Alcotest.(check bool)
    (Printf.sprintf "depth-8 speedup %.2fx >= 1.3" (speedup "8"))
    true
    (speedup "8" >= 1.3);
  Alcotest.(check bool) "depth-8 occupancy > 2" true (occupancy "8" > 2.0)

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
        tc "table2 shape" test_table2_shape;
        tc "fig5 shape" test_fig5_shape;
        tc "fig6 shape" test_fig6_shape;
        tc "fig7 ordering" test_fig7_ordering;
        tc "fig8 shapes" test_fig8_shapes;
        tc "locality shape" test_locality_shape;
        tc "costs sanity" test_costs_sanity;
        tc "workload open loop" test_workload_open_loop;
        tc "ablation-load golden" test_ablation_load_golden;
        tc "saturation sweep shape" test_saturation_shape;
        tc "saturation load knobs" test_saturation_load_knobs;
        tc "runner helpers" test_runner_helpers;
        tc "experiments deterministic" test_experiments_deterministic;
        tc "experiments same at any -j" test_experiments_same_at_any_jobs;
        tc "experiments identical without cache"
          test_experiments_identical_without_cache;
      ] );
  ]
