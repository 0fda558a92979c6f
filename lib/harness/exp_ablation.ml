open Bp_sim
open Blockplane

(* ---------- read strategies (§VI-A) ---------- *)

(* Internally sequential (three strategies share one populated world),
   so the plan is a single task. *)
let reads_reports ~scale =
  let world = Runner.fresh_world ~seed:6100L () in
  let engine = world.Runner.engine in
  let api = Deployment.api world.Runner.dep 0 in
  (* Populate a few entries first. *)
  let n = Runner.scaled scale 20 in
  ignore
    (Runner.sequential engine ~n:5 ~warmup:0 ~run_one:(fun i ~on_done ->
         Api.log_commit api (Printf.sprintf "entry-%d" i) ~on_done));
  let measure strategy =
    Runner.sequential engine ~n ~warmup:2 ~run_one:(fun i ~on_done ->
        let pos = i mod 5 in
        let finish r =
          (match r with
          | Some (Record.Commit _) -> ()
          | _ -> failwith "read ablation: wrong record");
          on_done ()
        in
        match strategy with
        | `One ->
            let r = Api.read api pos in
            (* Synchronous: complete on the next engine step so the loop
               stays uniform. *)
            ignore (Engine.schedule engine ~after:Time.zero (fun () -> finish r))
        | `Quorum -> Api.read_quorum api pos ~on_result:finish
        | `Linearizable -> Api.read_linearizable api pos ~on_result:finish)
  in
  let r1 = measure `One in
  let rq = measure `Quorum in
  let rl = measure `Linearizable in
  [
    {
      Report.id = "ablation-reads";
      title = "Read strategies (extension of SVI-A)";
      paper_ref = "SVI-A describes the three strategies; the paper does not measure them";
      header = [ "strategy"; "latency ms"; "tolerates" ];
      rows =
        [
          [ "read-1 (closest node)"; Report.ms (Bp_util.Stats.mean r1); "crash only (a liar can answer)" ];
          [ "2f+1 quorum"; Report.ms (Bp_util.Stats.mean rq); "f byzantine nodes" ];
          [ "linearizable (committed marker)"; Report.ms (Bp_util.Stats.mean rl); "f byzantine + stale reads" ];
        ];
      notes = [ "each stronger strategy buys safety with one more protocol round" ];
    };
  ]

let reads_plan ~scale =
  Runner.Plan
    { tasks = [ (fun () -> reads_reports ~scale) ]; merge = List.concat }

(* ---------- batching / group commit (§VI-C) ---------- *)

(* This world and those of the signature and loss ablations pin the
   consensus pipeline at depth 8, the Config.make default their tables
   were recorded at, where Runner.fresh_world alone would give depth 1. *)

let run_burst ~burst ~batch_max ~seed =
  let w =
    Runner.fresh_world ~seed ~n_participants:1 ~batch_max
      ~max_in_flight:8 ()
  in
  let engine = w.Runner.engine in
  let api = Deployment.api w.Runner.dep 0 in
  let done_count = ref 0 in
  let t0 = Engine.now engine in
  let finish_at = ref Time.zero in
  for i = 1 to burst do
    Api.log_commit api (Runner.payload ~size:1000 i) ~on_done:(fun () ->
        incr done_count;
        if !done_count = burst then finish_at := Engine.now engine)
  done;
  Engine.run ~until:(Time.of_sec 60.0) engine;
  if !done_count < burst then failwith "batching ablation: burst did not finish";
  let makespan_ms = Time.to_ms (Time.diff !finish_at t0) in
  let throughput = float_of_int burst /. (makespan_ms /. 1000.0) in
  (makespan_ms, throughput)

let batching_merge ~burst results =
  let (mk1, th1), (mk64, th64) =
    match results with
    | [ a; b ] -> (a, b)
    | _ -> failwith "batching ablation: expected two burst results"
  in
  [
    {
      Report.id = "ablation-batch";
      title = "Group commit (SVI-C): burst of concurrent log-commits";
      paper_ref =
        Printf.sprintf "SVI-C batching; burst of %d 1 KB requests, one unit" burst;
      header = [ "batching"; "makespan ms"; "requests/s" ];
      rows =
        [
          [ "off (1 request per PBFT batch)"; Report.ms mk1; Printf.sprintf "%.0f" th1 ];
          [ "on (up to 64 per batch)"; Report.ms mk64; Printf.sprintf "%.0f" th64 ];
        ];
      notes = [ "batching amortizes the three-phase protocol across the whole burst" ];
    };
  ]

let batching_plan ~scale =
  let burst = Runner.scaled scale 50 in
  Runner.Plan
    {
      tasks =
        [
          (fun () -> run_burst ~burst ~batch_max:1 ~seed:6200L);
          (fun () -> run_burst ~burst ~batch_max:64 ~seed:6201L);
        ];
      merge = batching_merge ~burst;
    }

(* ---------- signature schemes ---------- *)

let run_scheme ~n ~scheme ~seed =
  let w =
    Runner.fresh_world ~seed ~n_participants:2 ~scheme ~max_in_flight:8
      ()
  in
  let engine = w.Runner.engine and dep = w.Runner.dep in
  let api0 = Deployment.api dep 0 in
  let received = ref 0 in
  (* Messages arrive in order; resolve the waiting sender directly. *)
  let waiting : (unit -> unit) Queue.t = Queue.create () in
  Api.on_receive (Deployment.api dep 1) (fun ~src _ ->
      ignore (Api.receive (Deployment.api dep 1) ~src);
      incr received;
      if not (Queue.is_empty waiting) then (Queue.pop waiting) ());
  let stats = Bp_util.Stats.create () in
  let rec go i =
    if i <= n then begin
      let started = Engine.now engine in
      Queue.push
        (fun () ->
          Bp_util.Stats.add stats
            (Time.to_ms (Time.diff (Engine.now engine) started));
          go (i + 1))
        waiting;
      Api.send api0 ~dest:1 (Runner.payload ~size:1000 i) ~on_done:ignore
    end
  in
  go 1;
  Engine.run ~until:(Time.of_sec 60.0) engine;
  if !received < n then failwith "signature ablation: messages lost";
  let bytes = (Network.counters w.Runner.net).Network.bytes_sent in
  (Bp_util.Stats.mean stats, bytes / n)

let signatures_merge results =
  let (hmac_lat, hmac_bytes), (hash_lat, hash_bytes) =
    match results with
    | [ a; b ] -> (a, b)
    | _ -> failwith "signature ablation: expected two scheme results"
  in
  [
    {
      Report.id = "ablation-sig";
      title = "Signature schemes: HMAC registry vs hash-based (Lamport/Merkle)";
      paper_ref =
        "SVIII: the paper's prototype skipped signatures entirely; both schemes here are real";
      header =
        [ "scheme"; "send->receive ms (C->O)"; "network bytes per message" ];
      rows =
        [
          [ "HMAC-SHA256 (32 B sigs)"; Report.ms hmac_lat; string_of_int hmac_bytes ];
          [
            "hash-based (Lamport+Merkle, ~16 KB sigs)";
            Report.ms hash_lat;
            string_of_int hash_bytes;
          ];
        ];
      notes =
        [
          "hash-based signatures need no trusted registry; each signature is ~500x larger (message-level traffic ~23x)";
          "wire size feeds the NIC model, so the latency gap is bandwidth, not CPU";
        ];
    };
  ]

let signatures_plan ~scale =
  let n = Stdlib.max 2 (Runner.scaled scale 5) in
  Runner.Plan
    {
      tasks =
        [
          (fun () -> run_scheme ~n ~scheme:`Hmac ~seed:6300L);
          (fun () -> run_scheme ~n ~scheme:`Hash_based ~seed:6301L);
        ];
      merge = signatures_merge;
    }

(* ---------- behaviour under network loss ---------- *)

let loss_rates = [ 0.0; 0.01; 0.05; 0.10 ]

let loss_task ~scale i rate () =
  let n = Runner.scaled scale 30 in
  let w =
    Runner.fresh_world ~seed:(Int64.of_int (6400 + i)) ~n_participants:1
      ~max_in_flight:8 ()
  in
  Network.set_faults w.Runner.net { Network.no_faults with drop = rate };
  let engine = w.Runner.engine in
  let api = Deployment.api w.Runner.dep 0 in
  let stats =
    Runner.sequential engine ~n ~warmup:3 ~run_one:(fun i ~on_done ->
        Api.log_commit api (Runner.payload ~size:1000 i) ~on_done)
  in
  let s = Bp_util.Stats.summarize stats in
  [
    Printf.sprintf "%.0f%%" (rate *. 100.0);
    Report.ms s.Bp_util.Stats.mean;
    Report.ms s.Bp_util.Stats.p50;
    Report.ms s.Bp_util.Stats.max;
  ]

let loss_merge rows =
  [
    {
      Report.id = "ablation-loss";
      title = "Local commit latency under packet loss";
      paper_ref = "extension: the reliable-transport layer the paper assumes from TCP";
      header = [ "drop rate"; "mean ms"; "p50 ms"; "max ms" ];
      rows;
      notes =
        [
          "losses surface as retransmission delays, never as protocol failures";
        ];
    };
  ]

let loss_plan ~scale =
  Runner.Plan
    {
      tasks = List.mapi (fun i r -> loss_task ~scale i r) loss_rates;
      merge = loss_merge;
    }
