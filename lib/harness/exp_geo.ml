open Bp_sim
open Blockplane

(* Paper readings for Fig. 5 (SVIII-B text). *)
let fig5_paper = function
  | 0, 1 -> "~23" | 0, 2 -> "~64" | 0, 3 -> ">135" (* California *)
  | 1, 1 -> "~23" | 1, 2 -> "~80" | 1, 3 -> ">135" (* Oregon *)
  | 2, 1 -> "~64" | 2, 2 -> "64-80" | 2, 3 -> "~80" (* Virginia *)
  | 3, 1 -> "~72" | 3, 2 -> "~135" | 3, 3 -> ">135" (* Ireland *)
  | _ -> "-"

(* dc-major, fg-minor: the row order of the rendered report. *)
let fig5_points =
  List.concat_map (fun dc -> List.map (fun fg -> (dc, fg)) [ 1; 2; 3 ]) [ 0; 1; 2; 3 ]

let fig5_task ~scale (dc, fg) () =
  let topo = Topology.aws_paper in
  let world =
    Runner.fresh_world ~fg
      ~seed:(Int64.of_int (4000 + (10 * dc) + fg))
      ()
  in
  let api = Deployment.api world.Runner.dep dc in
  let n = Runner.scaled scale 10 in
  let stats =
    Runner.sequential world.Runner.engine ~n ~warmup:2 ~run_one:(fun i ~on_done ->
        Api.log_commit api (Runner.payload ~size:1000 i) ~on_done)
  in
  [
    Printf.sprintf "%c(%d)" (Topology.name topo dc).[0] fg;
    Report.ms (Bp_util.Stats.mean stats);
    fig5_paper (dc, fg);
  ]

let fig5_merge rows =
  [
    {
      Report.id = "fig5";
      title = "Commit latency with geo-correlated fault tolerance";
      paper_ref = "Fig. 5, SVIII-B: fi=1, fg varies; X(g) = commit at X with fg=g";
      header = [ "scenario"; "ms (measured)"; "ms (paper)" ];
      rows;
      notes =
        [
          "latency ~= local commit + RTT to the fg-th closest datacenter + mirror commit";
        ];
    };
  ]

let fig5_plan ~scale =
  Runner.Plan
    {
      tasks = List.map (fun p -> fig5_task ~scale p) fig5_points;
      merge = fig5_merge;
    }

(* ---------- Fig. 8 ---------- *)

(* Summarise a latency series: a mean row per stable region plus
   individual rows around the failure point. *)
let summarize_series series ~failure_at =
  let arr = Array.of_list series in
  let n = Array.length arr in
  let mean lo hi =
    (* inclusive bounds, 0-based *)
    let s = ref 0.0 and c = ref 0 in
    for i = lo to hi do
      if i >= 0 && i < n then begin
        s := !s +. snd arr.(i);
        incr c
      end
    done;
    if !c = 0 then 0.0 else !s /. float_of_int !c
  in
  let detail_lo = Stdlib.max 0 (failure_at - 2) in
  let detail_hi = Stdlib.min (n - 1) (failure_at + 4) in
  let rows = ref [] in
  if detail_lo > 0 then
    rows :=
      [
        Printf.sprintf "batches %d-%d" (fst arr.(0)) (fst arr.(detail_lo - 1));
        Report.ms (mean 0 (detail_lo - 1));
      ]
      :: !rows;
  for i = detail_lo to detail_hi do
    rows := [ Printf.sprintf "batch %d" (fst arr.(i)); Report.ms (snd arr.(i)) ] :: !rows
  done;
  if detail_hi < n - 1 then
    rows :=
      [
        Printf.sprintf "batches %d-%d" (fst arr.(detail_hi + 1)) (fst arr.(n - 1));
        Report.ms (mean (detail_hi + 1) (n - 1));
      ]
      :: !rows;
  List.rev !rows

let fig8a ~scale =
  let world = Runner.fresh_world ~fg:1 ~seed:4800L () in
  let api = Deployment.api world.Runner.dep Topology.dc_california in
  let total = Runner.scaled scale 100 in
  let failure_at = Stdlib.max 1 (45 * total / 100) in
  let series = ref [] in
  let stats =
    Runner.sequential world.Runner.engine ~n:total ~warmup:0 ~run_one:(fun i ~on_done ->
        if i = failure_at then Network.crash_dc world.Runner.net Topology.dc_oregon;
        let started = Engine.now world.Runner.engine in
        Api.log_commit api (Runner.payload ~size:1000 i) ~on_done:(fun () ->
            let ms = Time.to_ms (Time.diff (Engine.now world.Runner.engine) started) in
            series := (i + 1, ms) :: !series;
            on_done ()))
  in
  ignore stats;
  {
    Report.id = "fig8a";
    title = "Reacting to a backup failure (Oregon dies)";
    paper_ref =
      Printf.sprintf
        "Fig. 8(a), SVIII-E: fi=fg=1, primary California; Oregon killed at batch %d"
        failure_at;
    header = [ "batch"; "latency ms" ];
    rows = summarize_series (List.rev !series) ~failure_at;
    notes =
      [
        "expected shape: ~20-40 ms while Oregon lives, ~60-80 ms after (proofs from Virginia)";
        "the batch in flight at the failure pays the suspicion timeout";
      ];
  }

let fig8b ~scale =
  let world = Runner.fresh_world ~fg:1 ~seed:4900L () in
  let engine = world.Runner.engine in
  let c = Topology.dc_california and v = Topology.dc_virginia in
  let api_c = Deployment.api world.Runner.dep c in
  let api_v = Deployment.api world.Runner.dep v in
  let total = Runner.scaled scale 160 in
  let failure_at = Stdlib.max 1 (70 * total / 160) in
  (* The standby driver at Virginia watches California's lead node. *)
  let takeover = ref false in
  let pending : (string * (unit -> unit)) option ref = ref None in
  let standby_transport =
    Bp_net.Transport.create world.Runner.net (Addr.make ~dc:v ~idx:95)
  in
  ignore
    (Bp_net.Heartbeat.create standby_transport
       ~peers:[ (Deployment.unit_addrs world.Runner.dep c).(0) ]
       ~period:(Time.of_ms 50.0) ~timeout:(Time.of_ms 200.0)
       ~on_suspect:(fun _ ->
         takeover := true;
         (* Re-drive the batch that died with the primary. *)
         match !pending with
         | Some (payload, k) ->
             pending := None;
             Api.log_commit api_v payload ~on_done:k
         | None -> ())
       ());
  let series = ref [] in
  let stats =
    Runner.sequential world.Runner.engine ~n:total ~warmup:0 ~run_one:(fun i ~on_done ->
        if i = failure_at then Network.crash_dc world.Runner.net c;
        let started = Engine.now engine in
        let payload = Runner.payload ~size:1000 i in
        let finish () =
          let ms = Time.to_ms (Time.diff (Engine.now engine) started) in
          series := (i + 1, ms) :: !series;
          on_done ()
        in
        if !takeover then Api.log_commit api_v payload ~on_done:finish
        else begin
          (* Submitted at the (possibly just-killed) primary; the standby
             resubmits it if California never answers. *)
          pending := Some (payload, finish);
          Api.log_commit api_c payload ~on_done:(fun () ->
              pending := None;
              finish ())
        end)
  in
  ignore stats;
  {
    Report.id = "fig8b";
    title = "Reacting to a primary failure (California dies, Virginia takes over)";
    paper_ref =
      Printf.sprintf
        "Fig. 8(b), SVIII-E: fi=fg=1; primary killed after batch %d" failure_at;
    header = [ "batch"; "latency ms" ];
    rows = summarize_series (List.rev !series) ~failure_at;
    notes =
      [
        "expected shape: ~20-40 ms at California, then a takeover spike (~250 ms)";
        "and ~70-80 ms steady state at Virginia (its closest live mirror is Ireland)";
      ];
  }

let fig8_plan ~scale =
  Runner.Plan
    {
      tasks =
        [ (fun () -> fig8a ~scale); (fun () -> fig8b ~scale) ];
      merge = (fun reports -> reports);
    }
