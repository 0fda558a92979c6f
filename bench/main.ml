(* The benchmark executable.

   Part 1 regenerates every table and figure of the paper's evaluation
   (§VIII) on the deterministic simulator, printing measured-vs-paper
   rows — one block per table/figure, in paper order.

   Part 2 runs Bechamel micro-benchmarks of the compute-bound substrate
   (hashing, signatures, codecs, the event engine), i.e. the real CPU
   cost of running the harness itself.

   Usage:
     dune exec bench/main.exe                 # everything, default scale
     dune exec bench/main.exe -- fig7         # one experiment
     dune exec bench/main.exe -- micro        # only the micro-benchmarks
     dune exec bench/main.exe -- --json out.json   # also dump bp-bench/8 JSON
     dune exec bench/main.exe -- --json out.json --baseline base.json
                                              # also record speedup_vs_baseline
     dune exec bench/main.exe -- --scale 0.2  # quicker sweep
     BP_BENCH_SCALE=0.2 dune exec bench/main.exe   # same, via the environment
     dune exec bench/main.exe -- -j 1 --batch-min-fill 16 --batch-hold 0.25
                                              # sequential, d8mf16 batch cut
     dune exec bench/main.exe -- --help       # every flag

   --json and --baseline are this executable's own flags. Every other flag
   (--scale, --jobs, --no-cache and the knobs --pipeline, --verify-jobs,
   --cluster-send, --load-rate, --load-trace, --skew, --shards,
   --batch-min-fill, --batch-hold) is the term shared with blockplane-cli
   (lib/cli); a bad value exits 124 naming the flag. Unknown experiment
   ids, unreadable baselines and unwritable JSON paths exit 2.

   --jobs defaults to Domain.recommended_domain_count. Parallel runs are
   bit-identical to -j 1 in every report row (each sweep point is its own
   seeded simulation; results merge by task index) — only wall times move.

   The --json report (schema documented in EXPERIMENTS.md, "Performance
   methodology") is the perf-regression record: one BENCH_PRn.json is
   committed per PR and compared against its predecessors. *)

open Bechamel
open Toolkit

(* ---------- part 1: the paper's tables and figures ---------- *)

let run_experiment ?pool (common : Bp_cli.t) e =
  Printf.printf "\n";
  (* Each experiment's wall time must not pay for its predecessors'
     garbage: the big-payload sweeps leave whole simulated worlds (and
     their per-node caches) dead on the major heap, and letting the
     incremental GC reclaim them during the *next* experiment's timed
     region skews that experiment by hundreds of ms. Collect to a clean
     slate first — identically in cached and --no-cache runs, so
     baseline ratios stay honest. *)
  Gc.compact ();
  (* Per-experiment verify-batch stats: reset the shared context before
     the run and snapshot after, so the JSON records how each
     experiment's receive path used the batch machinery. *)
  Bp_crypto.Verify_batch.reset_stats (Bp_crypto.Verify_batch.global ());
  (* Wall-clock is the quantity being reported here — the bench harness
     measures real elapsed time by design, not simulated time. *)
  let t0 = (Unix.gettimeofday () [@bplint.allow "R2-nondet"]) in
  let reports =
    Bp_harness.Experiments.run ?pool ~knobs:common.knobs e ~scale:common.scale
  in
  List.iter (fun r -> print_string (Bp_harness.Report.render r)) reports;
  let wall = (Unix.gettimeofday () [@bplint.allow "R2-nondet"]) -. t0 in
  Printf.printf "   (regenerated in %.1fs wall time)\n%!" wall;
  let vb = Bp_crypto.Verify_batch.stats (Bp_crypto.Verify_batch.global ()) in
  (* Per-operation counters (latency percentiles, pipeline occupancy)
     for the JSON record, keyed "<report-id>.<name>" since an experiment
     can emit several reports (fig4a/fig4b). *)
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun (k, v) -> (r.Bp_harness.Report.id ^ "." ^ k, v))
          r.Bp_harness.Report.metrics)
      reports
  in
  (e.Bp_harness.Experiments.id, wall, metrics, vb)

let load_shape_name = function
  | `Poisson -> "poisson"
  | `Bursty -> "bursty"
  | `Diurnal -> "diurnal"

let known_ids =
  List.map (fun e -> e.Bp_harness.Experiments.id) Bp_harness.Experiments.all

let check_known ids =
  match List.filter (fun id -> not (List.mem id known_ids)) ids with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown experiment%s: %s\n  (known: %s, micro)\n"
        (if List.length unknown > 1 then "s" else "")
        (String.concat ", " unknown) (String.concat ", " known_ids);
      exit 2

let run_paper_benches ?pool (common : Bp_cli.t) ids =
  let k = common.knobs in
  Printf.printf "=====================================================\n";
  Printf.printf "Blockplane (ICDE 2019) - evaluation reproduction\n";
  Printf.printf "scale=%.2f (set BP_BENCH_SCALE to adjust)\n" common.scale;
  Printf.printf "jobs=%d (--jobs N; results are identical at any N)\n"
    common.jobs;
  Printf.printf
    "pipeline=%d (--pipeline N; consensus depth for every world; the \
     ablation sweeps its own)\n"
    k.pipeline;
  Printf.printf
    "verify-jobs=%d (--verify-jobs N; batch-crypto fan-out and modeled \
     verify parallelism; golden tables are identical at any N)\n"
    k.verify_jobs;
  Printf.printf "cache=%s (--no-cache to disable; tables are identical either way)\n"
    (if Bp_crypto.Verify_cache.enabled () then "on" else "off");
  Printf.printf
    "cluster-send=%s (--cluster-send on|off; default WAN path for every \
     world; the clustersend ablation sweeps both regardless)\n"
    (if k.cluster_send then "on" else "off");
  Printf.printf
    "load=%s%s skew=%g (--load-trace poisson|bursty|diurnal, --load-rate N, \
     --skew S; the saturation sweep's arrival model)\n"
    (load_shape_name k.load_shape)
    (match k.load_rate with
    | Some r -> Printf.sprintf " rate=%.0f/s" r
    | None -> "")
    k.skew;
  Printf.printf
    "shards=%d (--shards N; keyspace shards for worlds without their own \
     map, clamped to each world's participants; the shard ablation sweeps \
     1..16 regardless)\n"
    k.shards;
  Printf.printf
    "batch-cut=%s/%s (--batch-min-fill N, --batch-hold MS; default policy \
     for worlds without their own; seed = cut on any signal)\n"
    (match k.batch_min_fill with
    | Some m -> string_of_int m
    | None -> "-")
    (match k.batch_hold with
    | Some h -> Printf.sprintf "%gms" (Bp_sim.Time.to_ms h)
    | None -> "-");
  Printf.printf "=====================================================\n";
  List.filter_map
    (fun e ->
      if ids = [] || List.mem e.Bp_harness.Experiments.id ids then
        Some (run_experiment ?pool common e)
      else None)
    Bp_harness.Experiments.all

(* ---------- part 2: micro-benchmarks ---------- *)

let micro_tests () =
  let open Bp_crypto in
  let rng = Bp_util.Rng.create 7L in
  let payload_1k = String.init 1024 (fun i -> Char.chr (i land 0xff)) in
  let payload_64k = String.init 65536 (fun i -> Char.chr (i land 0xff)) in
  let payload_1m = String.init (1 lsl 20) (fun i -> Char.chr (i land 0xff)) in
  let seal_scratch = Bp_codec.Wire.encoder ~size_hint:((1 lsl 20) + 64) () in
  let lamport_sk, lamport_pk = Lamport.keygen rng in
  let lamport_sig = Lamport.sign lamport_sk "msg" in
  let record =
    Blockplane.Record.Recv
      {
        Blockplane.Record.src = 1;
        tdest = 0;
        tcomm_seq = 42;
        log_pos = 117;
        tpayload = payload_1k;
        proofs = [ ("u1/n1.0", String.make 32 's'); ("u1/n1.1", String.make 32 't') ];
        geo_proofs = [];
      }
  in
  let encoded_record = Blockplane.Record.encode record in
  let frame = Bp_codec.Frame.seal payload_1k in
  (* Verification-cache rows. The hit row probes a warmed cache; the miss
     row pays the full uncached verify plus insertion bookkeeping into a
     fresh cache; their gap is what each memoized re-verification saves.
     With --no-cache all three degrade to the uncached computation. *)
  let vkeystore = Signer.create (Bp_util.Rng.split rng) in
  let vsigner = "bench/verifier" in
  Signer.add_identity vkeystore vsigner;
  let vcache = Verify_cache.create vkeystore in
  let vsig = Signer.sign vkeystore ~signer:vsigner payload_1k in
  ignore (Verify_cache.verify vcache ~signer:vsigner ~msg:payload_1k ~signature:vsig);
  let batch =
    List.init 16 (fun i ->
        {
          Bp_pbft.Msg.client = Bp_sim.Addr.make ~dc:0 ~idx:i;
          ts = i;
          kind = 0;
          op = payload_1k;
          client_sig = String.make 32 'x';
        })
  in
  let bmemo = Verify_cache.memo () in
  let hmac_key = Hmac.prepare "benchkey" in
  (* Batch-verification rows: the same job list through a sequential
     (jobs 1) and a fanned (jobs 4) Verify_batch context — their gap is
     the real wall-clock win of the domain-pool crypto path. Hash-based
     signatures make the keyed rows compute-bound (HMAC verifies are too
     cheap to amortize a fan-out); no cache, so every call re-verifies. *)
  let bb_keystore = Signer.create ~scheme:`Hash_based (Bp_util.Rng.split rng) in
  let bb_signer = "bench/batch" in
  Signer.add_identity bb_keystore bb_signer;
  let bb_jobs16 =
    List.init 16 (fun i ->
        let msg = Printf.sprintf "batch-msg-%d" i in
        Verify_batch.Keyed
          { signer = bb_signer; msg; signature = Signer.sign bb_keystore ~signer:bb_signer msg })
  in
  let lamport_jobs8 =
    List.init 8 (fun i ->
        let sk, pk = Lamport.keygen rng in
        let msg = Printf.sprintf "lamport-msg-%d" i in
        Verify_batch.Lamport { key = pk; msg; signature = Lamport.sign sk msg })
  in
  let vb_seq = Verify_batch.create ~jobs:1 () in
  let vb_par = Verify_batch.create ~jobs:4 () in
  let cleanup () =
    Verify_batch.shutdown vb_par;
    Verify_batch.shutdown vb_seq
  in
  ( cleanup,
    [
    Test.make ~name:"sha256 (1 KiB)"
      (Staged.stage (fun () -> Sha256.digest payload_1k));
    Test.make ~name:"sha256 (64 KiB)"
      (Staged.stage (fun () -> Sha256.digest payload_64k));
    (* Retained pre-optimization implementation: the gap between this row
       and "sha256 (64 KiB)" is the digest speedup, self-contained in any
       single bench report. *)
    Test.make ~name:"sha256-ref (64 KiB)"
      (Staged.stage (fun () -> Sha256_ref.digest payload_64k));
    Test.make ~name:"hmac-sha256 (1 KiB)"
      (Staged.stage (fun () -> Hmac.sha256 ~key:"benchkey" payload_1k));
    (* The keystore's path: pads hashed once at provisioning, so the gap to
       the row above is the per-MAC key preparation. *)
    Test.make ~name:"hmac 1k (prepared key)"
      (Staged.stage (fun () -> Hmac.mac hmac_key payload_1k));
    Test.make ~name:"crc32 (64 KiB)"
      (Staged.stage (fun () -> Crc32.string payload_64k));
    Test.make ~name:"crc32 (1 MiB)"
      (Staged.stage (fun () -> Crc32.string payload_1m));
    (* Stitching a known suffix CRC onto a prefix: the per-destination
       cost of a broadcast frame. Depends on the bits of the length only,
       so it should sit far below the full passes above. *)
    Test.make ~name:"crc32 combine (1 KiB suffix)"
      (Staged.stage (fun () -> Crc32.combine 0x12345678l 0x9abcdef0l 1024));
    Test.make ~name:"crc32 combine (1 MiB suffix)"
      (Staged.stage (fun () -> Crc32.combine 0x12345678l 0x9abcdef0l 1_048_576));
    Test.make ~name:"frame seal (1 MiB)"
      (Staged.stage (fun () -> Bp_codec.Frame.seal payload_1m));
    (* The transport send path, before and after PR 3: encode the payload
       to a string and seal it (two big allocations, payload moved three
       times) vs assemble the frame directly in a reused scratch encoder
       (one allocation, payload moved twice). The bare "frame seal" row
       above is not the old send path — it starts from an already
       materialized payload string. *)
    Test.make ~name:"wire encode + frame seal (1 MiB)"
      (Staged.stage (fun () ->
           Bp_codec.Frame.seal
             (Bp_codec.Wire.encode_with seal_scratch (fun e ->
                  Bp_codec.Wire.fixed e payload_1m))));
    Test.make ~name:"frame seal_with (1 MiB)"
      (Staged.stage (fun () ->
           Bp_codec.Frame.seal_with seal_scratch (fun e ->
               Bp_codec.Wire.fixed e payload_1m)));
    Test.make ~name:"merkle root (64 leaves)"
      (Staged.stage
         (let leaves = List.init 64 string_of_int in
          fun () -> Merkle.root leaves));
    Test.make ~name:"lamport verify"
      (Staged.stage (fun () -> Lamport.verify lamport_pk "msg" lamport_sig));
    Test.make ~name:"batch verify 16 sigs, jobs 1"
      (Staged.stage (fun () ->
           Verify_batch.verify ~keystore:bb_keystore vb_seq bb_jobs16));
    Test.make ~name:"batch verify 16 sigs, jobs 4"
      (Staged.stage (fun () ->
           Verify_batch.verify ~keystore:bb_keystore vb_par bb_jobs16));
    Test.make ~name:"lamport batch verify 8, jobs 1"
      (Staged.stage (fun () ->
           Verify_batch.verify ~keystore:bb_keystore vb_seq lamport_jobs8));
    Test.make ~name:"lamport batch verify 8, jobs 4"
      (Staged.stage (fun () ->
           Verify_batch.verify ~keystore:bb_keystore vb_par lamport_jobs8));
    Test.make ~name:"verify hit (1 KiB, cached)"
      (Staged.stage (fun () ->
           Verify_cache.verify vcache ~signer:vsigner ~msg:payload_1k
             ~signature:vsig));
    Test.make ~name:"verify miss (1 KiB, cold cache)"
      (Staged.stage (fun () ->
           let c = Verify_cache.create ~capacity:16 vkeystore in
           Verify_cache.verify c ~signer:vsigner ~msg:payload_1k ~signature:vsig));
    Test.make ~name:"batch_digest memo (16 x 1 KiB)"
      (Staged.stage (fun () ->
           Bp_crypto.Verify_cache.memoize bmemo batch (fun () ->
               Bp_pbft.Msg.batch_digest ~cache:vcache batch)));
    Test.make ~name:"record decode (1 KiB recv)"
      (Staged.stage (fun () -> Blockplane.Record.decode encoded_record));
    Test.make ~name:"frame unseal (1 KiB)"
      (Staged.stage (fun () -> Bp_codec.Frame.unseal frame));
    Test.make ~name:"engine schedule+fire 1k events"
      (Staged.stage (fun () ->
           let e = Bp_sim.Engine.create () in
           for i = 1 to 1000 do
             ignore
               (Bp_sim.Engine.schedule e ~after:(Bp_sim.Time.of_us i) (fun () -> ()))
           done;
           Bp_sim.Engine.run e));
    Test.make ~name:"engine 1k events, half cancelled"
      (Staged.stage (fun () ->
           let e = Bp_sim.Engine.create () in
           let timers =
             Array.init 1000 (fun i ->
                 Bp_sim.Engine.schedule e
                   ~after:(Bp_sim.Time.of_us (i + 1))
                   (fun () -> ()))
           in
           for i = 0 to 999 do
             if i land 1 = 0 then Bp_sim.Engine.cancel timers.(i)
           done;
           assert (Bp_sim.Engine.pending e = 500);
           assert (Bp_sim.Engine.cancelled_backlog e <= 500);
           Bp_sim.Engine.run e));
    Test.make ~name:"simulated local commit (full unit)"
      (Staged.stage (fun () ->
           let world = Bp_harness.Runner.fresh_world ~n_participants:1 () in
           let api = Blockplane.Deployment.api world.Bp_harness.Runner.dep 0 in
           let ok = ref false in
           Blockplane.Api.log_commit api "bench" ~on_done:(fun () -> ok := true);
           Bp_sim.Engine.run ~until:(Bp_sim.Time.of_sec 1.0)
             world.Bp_harness.Runner.engine;
           assert !ok));
  ] )

let run_micro () =
  Printf.printf "\n=====================================================\n";
  Printf.printf "Micro-benchmarks (Bechamel; real CPU time per call)\n";
  Printf.printf "=====================================================\n";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = [ Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let rows = ref [] in
  let cleanup, tests = micro_tests () in
  Fun.protect ~finally:cleanup @@ fun () ->
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (ns :: _) ->
              if ns < 1e4 then Printf.printf "%-42s %10.0f ns/op\n" name ns
              else Printf.printf "%-42s %10.1f us/op\n" name (ns /. 1e3);
              rows := (name, ns) :: !rows
          | _ -> Printf.printf "%-42s (no estimate)\n" name)
        analyzed)
    tests;
  Printf.printf "%!";
  List.rev !rows

(* ---------- JSON report (schema bp-bench/8) ---------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* A baseline is a prior --json report to compare against — a sequential
   run for parallel speedups, or a --no-cache run for cache speedups. We
   only need (id, wall_s) pairs, and every experiment line of bp-bench/1
   through /4 reports starts with exactly those two fields, so a
   line-oriented scan is enough — no JSON parser needed. *)
let read_baseline path =
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "bench: cannot read baseline: %s\n" msg;
      exit 2
  in
  let entries = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       match
         Scanf.sscanf line "{ \"id\": %S, \"wall_s\": %f" (fun id w -> (id, w))
       with
       | entry -> entries := entry :: !entries
       | exception _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

(* One verify-batch stats object, shared between the per-experiment
   entries and the whole-run aggregate. The histogram is keyed by the
   bucket labels so the record is self-describing. *)
let print_vb_stats oc label (s : Bp_crypto.Verify_batch.stats) =
  let p fmt = Printf.fprintf oc fmt in
  p
    "\"%s\": { \"batches\": %d, \"jobs\": %d, \"fanned\": %d, \
     \"cache_hits\": %d, \"fanned_batches\": %d, \"occupancy\": %.3f, \
     \"batch_size_hist\": { "
    label s.Bp_crypto.Verify_batch.batches s.Bp_crypto.Verify_batch.jobs_submitted
    s.Bp_crypto.Verify_batch.fanned s.Bp_crypto.Verify_batch.cache_hits
    s.Bp_crypto.Verify_batch.fanned_batches s.Bp_crypto.Verify_batch.occupancy;
  Array.iteri
    (fun i label ->
      p "%s\"%s\": %d"
        (if i = 0 then "" else ", ")
        label s.Bp_crypto.Verify_batch.hist.(i))
    Bp_crypto.Verify_batch.hist_buckets;
  p " } }"

(* Sum of per-experiment deltas; occupancy re-weighted by fanned batches. *)
let sum_vb_stats stats_list : Bp_crypto.Verify_batch.stats =
  let open Bp_crypto.Verify_batch in
  let buckets = Array.length hist_buckets in
  List.fold_left
    (fun acc s ->
      {
        batches = acc.batches + s.batches;
        jobs_submitted = acc.jobs_submitted + s.jobs_submitted;
        fanned = acc.fanned + s.fanned;
        cache_hits = acc.cache_hits + s.cache_hits;
        fanned_batches = acc.fanned_batches + s.fanned_batches;
        occupancy =
          (let fb = acc.fanned_batches + s.fanned_batches in
           if fb = 0 then 0.0
           else
             ((acc.occupancy *. float_of_int acc.fanned_batches)
             +. (s.occupancy *. float_of_int s.fanned_batches))
             /. float_of_int fb);
        hist = Array.init buckets (fun i -> acc.hist.(i) + s.hist.(i));
      })
    {
      batches = 0;
      jobs_submitted = 0;
      fanned = 0;
      cache_hits = 0;
      fanned_batches = 0;
      occupancy = 0.0;
      hist = Array.make buckets 0;
    }
    stats_list

let write_json path (common : Bp_cli.t) ~baseline ~experiments ~micro =
  let k = common.knobs in
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"bp-bench/8\",\n";
  p "  \"scale\": %g,\n" common.scale;
  p "  \"jobs\": %d,\n" common.jobs;
  p "  \"pipeline\": %d,\n" k.pipeline;
  p "  \"verify_jobs\": %d,\n" k.verify_jobs;
  p "  \"cluster_send\": %b,\n" k.cluster_send;
  (* bp-bench/8: the sharding knob and the batch-cut policy defaults
     (null = the seed's cut-on-any-signal behaviour). *)
  p "  \"shards\": %d,\n" k.shards;
  p "  \"batch\": { \"min_fill\": %s, \"hold_ms\": %s },\n"
    (match k.batch_min_fill with
    | Some m -> string_of_int m
    | None -> "null")
    (match k.batch_hold with
    | Some h -> Printf.sprintf "%g" (Bp_sim.Time.to_ms h)
    | None -> "null");
  (* The load-generation knobs behind the saturation sweep; rate is null
     when the sweep's own rate list ran. *)
  p "  \"load\": { \"trace\": \"%s\", \"rate\": %s, \"skew\": %g },\n"
    (load_shape_name k.load_shape)
    (match k.load_rate with
    | Some r -> Printf.sprintf "%g" r
    | None -> "null")
    k.skew;
  p "  \"cache_enabled\": %b,\n" (Bp_crypto.Verify_cache.enabled ());
  (let c = Bp_crypto.Verify_cache.counters () in
   let nodes = Bp_crypto.Verify_cache.instances () in
   let per_node v = if nodes = 0 then 0.0 else float_of_int v /. float_of_int nodes in
   p
     "  \"cache\": { \"verify_hits\": %d, \"verify_misses\": %d, \
      \"digest_hits\": %d, \"digest_misses\": %d, \"memo_hits\": %d, \
      \"memo_misses\": %d,\n"
     c.Bp_crypto.Verify_cache.verify_hits c.Bp_crypto.Verify_cache.verify_misses
     c.Bp_crypto.Verify_cache.digest_hits c.Bp_crypto.Verify_cache.digest_misses
     c.Bp_crypto.Verify_cache.memo_hits c.Bp_crypto.Verify_cache.memo_misses;
   (* The aggregate counters above span every node cache the run created;
      the per-node means divide by the instance count so runs of
      different topology sizes stay comparable. *)
   p
     "    \"nodes\": %d, \"per_node_mean\": { \"verify_hits\": %.1f, \
      \"verify_misses\": %.1f, \"digest_hits\": %.1f, \"digest_misses\": \
      %.1f } },\n"
     nodes
     (per_node c.Bp_crypto.Verify_cache.verify_hits)
     (per_node c.Bp_crypto.Verify_cache.verify_misses)
     (per_node c.Bp_crypto.Verify_cache.digest_hits)
     (per_node c.Bp_crypto.Verify_cache.digest_misses));
  p "  ";
  print_vb_stats oc "verify_batch"
    (sum_vb_stats (List.map (fun (_, _, _, vb) -> vb) experiments));
  p ",\n";
  p "  \"experiments\": [";
  List.iteri
    (fun i (id, wall, metrics, vb) ->
      p "%s\n    { \"id\": \"%s\", \"wall_s\": %.3f" (if i = 0 then "" else ",")
        (json_escape id) wall;
      (* Sub-millisecond walls (table1 just prints a constant matrix)
         would make the ratio pure noise; omit the fields there. *)
      (match List.assoc_opt id baseline with
      | Some base_wall when wall > 0.001 && base_wall > 0.001 ->
          p ", \"baseline_wall_s\": %.3f, \"speedup_vs_baseline\": %.2f"
            base_wall (base_wall /. wall)
      | _ -> ());
      if vb.Bp_crypto.Verify_batch.batches > 0 then begin
        p ",\n      ";
        print_vb_stats oc "verify_batch" vb
      end;
      (match metrics with
      | [] -> ()
      | metrics ->
          p ",\n      \"metrics\": { ";
          List.iteri
            (fun j (k, v) ->
              p "%s\"%s\": %g" (if j = 0 then "" else ", ") (json_escape k) v)
            metrics;
          p " }");
      p " }")
    experiments;
  p "\n  ],\n";
  p "  \"micro\": [";
  List.iteri
    (fun i (name, ns) ->
      p "%s\n    { \"name\": \"%s\", \"ns_per_op\": %.1f }"
        (if i = 0 then "" else ",")
        (json_escape name) ns)
    micro;
  p "\n  ]\n";
  p "}\n";
  close_out oc

let main (common : Bp_cli.t) json_path baseline_path ids =
  (match ids with [ "micro" ] -> () | ids -> check_known ids);
  let baseline = Option.fold ~none:[] ~some:read_baseline baseline_path in
  let experiments, micro =
    Bp_cli.with_pool common (fun pool ->
        match ids with
        | [ "micro" ] -> ([], run_micro ())
        | [] ->
            let experiments = run_paper_benches ?pool common [] in
            (experiments, run_micro ())
        | ids -> (run_paper_benches ?pool common ids, []))
  in
  match json_path with
  | None -> ()
  | Some path -> (
      try
        write_json path common ~baseline ~experiments ~micro;
        if path <> "/dev/null" then Printf.printf "\nwrote %s\n%!" path
      with Sys_error msg ->
        Printf.eprintf "bench: cannot write JSON report: %s\n" msg;
        exit 2)

let () =
  let open Cmdliner in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the bp-bench/8 JSON report to $(docv).")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "A prior $(b,--json) report; record each experiment's \
             speedup_vs_baseline against its wall time.")
  in
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiment ids to run, or $(b,micro); none runs everything.")
  in
  let info =
    Cmd.info "bench"
      ~doc:"Regenerate the paper's evaluation and micro-benchmarks"
  in
  exit
    (Cmd.eval
       (Cmd.v info Term.(const main $ Bp_cli.term $ json $ baseline $ ids)))
