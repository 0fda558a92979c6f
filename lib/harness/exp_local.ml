open Bp_sim
open Blockplane

(* A deployment with one participant measures pure local commitment: no
   wide-area traffic is involved (§VIII-A runs in Virginia alone). *)
let local_world ~fi ~seed =
  Runner.fresh_world ~fi ~seed ~n_participants:1 ()

let commit_loop world ~size ~n ~warmup =
  let api = Deployment.api world.Runner.dep 0 in
  Runner.sequential world.Runner.engine ~n ~warmup ~run_one:(fun i ~on_done ->
      Api.log_commit api (Runner.payload ~size i) ~on_done)

(* size (KB), measured batches, paper latency (ms), paper throughput (MB/s).
   Paper numbers from the §VIII-A text; "-" where the figure is not read
   out numerically in the text. *)
let fig4_points =
  [
    (1, 100, "<1", "~1.4");
    (10, 100, "<1", "-");
    (100, 100, "~1.2", "83");
    (500, 50, "-", "-");
    (1000, 30, "4.5", "~215");
    (2000, 20, "8.2", "~240");
  ]

(* One task per batch size: each point gets its own world and seed. *)
let fig4_task ~scale (kb, batches, paper_lat, paper_thr) () =
  let world = local_world ~fi:1 ~seed:(Int64.of_int (1000 + kb)) in
  let n = Runner.scaled scale batches in
  let warmup = Stdlib.max 1 (n / 10) in
  let stats = commit_loop world ~size:(kb * 1000) ~n ~warmup in
  let mean_ms = Bp_util.Stats.mean stats in
  (* Group commit, one batch at a time: throughput = size/latency. *)
  let throughput_mbps = float_of_int kb /. 1000.0 /. (mean_ms /. 1000.0) in
  (kb, mean_ms, throughput_mbps, paper_lat, paper_thr)

let fig4_merge results =
  let lat_rows =
    List.map
      (fun (kb, mean_ms, _, paper_lat, _) ->
        [ Printf.sprintf "%d KB" kb; Report.ms mean_ms; paper_lat ])
      results
  in
  let thr_rows =
    List.map
      (fun (kb, _, thr, _, paper_thr) ->
        [ Printf.sprintf "%d KB" kb; Report.mbps thr; paper_thr ])
      results
  in
  [
    {
      Report.id = "fig4a";
      title = "Local commitment latency vs batch size";
      paper_ref = "Fig. 4(a), SVIII-A: Virginia, fi=1, 4 nodes";
      header = [ "batch size"; "latency ms (measured)"; "latency ms (paper)" ];
      rows = lat_rows;
      notes =
        [
          "expected shape: ~1 ms up to 100 KB, then growing with NIC serialization";
        ];
    };
    {
      Report.id = "fig4b";
      title = "Local commitment throughput vs batch size";
      paper_ref = "Fig. 4(b), SVIII-A";
      header = [ "batch size"; "MB/s (measured)"; "MB/s (paper)" ];
      rows = thr_rows;
      notes =
        [
          "expected shape: steep growth to 100 KB (~60x from 1 KB), +~160% to 1 MB, ~+10% to 2 MB";
        ];
    };
  ]

let fig4_plan ~scale =
  Runner.Plan
    {
      tasks = List.map (fun p -> fig4_task ~scale p) fig4_points;
      merge = fig4_merge;
    }

let table2_points =
  [ (1, "83", "1.2"); (2, "51", "1.9"); (3, "28", "3.5"); (4, "25", "4") ]

let table2_task ~scale (fi, paper_thr, paper_lat) () =
  let world = local_world ~fi ~seed:(Int64.of_int (2000 + fi)) in
  let n = Runner.scaled scale 50 in
  let warmup = Stdlib.max 1 (n / 10) in
  let stats = commit_loop world ~size:100_000 ~n ~warmup in
  let mean_ms = Bp_util.Stats.mean stats in
  let thr = 0.1 /. (mean_ms /. 1000.0) in
  [
    Printf.sprintf "%d (fi=%d)" ((3 * fi) + 1) fi;
    Report.mbps thr;
    paper_thr;
    Report.ms mean_ms;
    paper_lat;
  ]

let table2_merge rows =
  [
    {
      Report.id = "table2";
      title = "Local commitment vs unit size (batch 100 KB)";
      paper_ref = "Table II, SVIII-A";
      header =
        [ "nodes"; "MB/s (measured)"; "MB/s (paper)"; "ms (measured)"; "ms (paper)" ];
      rows;
      notes = [ "expected shape: throughput falls and latency rises with n" ];
    };
  ]

let table2_plan ~scale =
  Runner.Plan
    {
      tasks = List.map (fun p -> table2_task ~scale p) table2_points;
      merge = table2_merge;
    }

(* ---------- pipeline depth (beyond the paper) ---------- *)

(* Fig4-style local commitment, but closed-loop with several requests
   outstanding and [batch_max = 1], so the consensus pipeline depth is
   the only concurrency lever: at depth 1 the primary is the seed's
   stop-and-wait one; deeper pipelines overlap the three-phase rounds
   of successive 100 KB batches. Crypto costs no simulated time here,
   as in every experiment: only the links and NICs do. *)
let pipeline_task ~scale depth () =
  let world =
    Runner.fresh_world ~fi:1 ~seed:(Int64.of_int (7000 + depth))
      ~n_participants:1 ~batch_max:1 ~max_in_flight:depth ()
  in
  let api = Deployment.api world.Runner.dep 0 in
  let size = 100_000 in
  let total = Runner.scaled scale 60 in
  let stats, makespan =
    Runner.closed_loop world.Runner.engine ~total ~outstanding:16
      ~run_one:(fun i ~on_done -> Api.log_commit api (Runner.payload ~size i) ~on_done)
  in
  let span_s = Time.to_sec makespan in
  let thr_mbps =
    float_of_int total *. float_of_int size /. 1e6 /. Stdlib.max 1e-9 span_s
  in
  (depth, thr_mbps, stats, Api.pipeline_occupancy api)

let pipeline_merge results =
  let base =
    List.fold_left
      (fun acc (d, thr, _, _) -> if d = 1 then thr else acc)
      0.0 results
  in
  let rows =
    List.map
      (fun (depth, thr, stats, occ) ->
        [
          string_of_int depth;
          Report.mbps thr;
          (if base > 0.0 then Printf.sprintf "%.2fx" (thr /. base) else "-");
          Report.ms (Bp_util.Stats.mean stats);
          Report.ms (Bp_util.Stats.percentile stats 95.0);
          Printf.sprintf "%.2f" occ;
        ])
      results
  in
  [
    {
      Report.id = "pipeline";
      title = "Consensus pipeline depth";
      paper_ref = "beyond the paper; cf. Fig. 4 setup (SVIII-A), 100 KB batches";
      header = [ "depth"; "MB/s"; "speedup"; "mean ms"; "p95 ms"; "occupancy" ];
      rows;
      notes =
        [
          "closed loop, 16 outstanding 100 KB commits, batch_max=1: depth is the only concurrency lever";
          "speedup is vs depth 1, the stop-and-wait baseline; execution stays in order at any depth";
        ];
    };
  ]

let pipeline_plan ~scale =
  Runner.Plan
    {
      tasks = List.map (fun d -> pipeline_task ~scale d) [ 1; 2; 4; 8 ];
      merge = pipeline_merge;
    }
