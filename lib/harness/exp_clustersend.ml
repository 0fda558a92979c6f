open Bp_sim
open Blockplane

(* ablation-clustersend: expected-constant byzantine cluster-sending vs
   the fi+1-signature-bundle baseline, swept over unit size
   n = 3fi+1 = 4/7/10/13 and three network conditions. One closed-loop
   C->O stream per task; delivery is measured at the source daemon's
   cumulative-ack frontier (the fig6 end point). *)

type mode = Bundle | Cluster
type scenario = Clean | Loss | Byz

let mode_name = function Bundle -> "bundle" | Cluster -> "cluster"

let scenario_name = function
  | Clean -> "clean"
  | Loss -> "loss 3%"
  | Byz -> "byz withhold"

let fis = [ 1; 2; 3; 4 ]

let combos =
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun fi -> List.map (fun sc -> (mode, fi, sc)) [ Clean; Loss; Byz ])
        fis)
    [ Bundle; Cluster ]

(* Per-task result: the rendered row plus the raw numbers the merge
   needs for cross-mode speedup metrics. *)
type result = {
  r_mode : mode;
  r_fi : int;
  r_scenario : scenario;
  r_thr : float; (* delivered records / simulated second *)
  r_p50 : float;
  r_p99 : float;
  r_wan_msgs : float; (* WAN messages per delivered record *)
  r_wan_kb : float;
  r_verifies : float; (* signature verifications per delivered record *)
}

let task ~knobs ~scale idx (mode, fi, scenario) () =
  let cluster_send = match mode with Cluster -> true | Bundle -> false in
  let w =
    (* The modeled verification cost (same constant the pipeline
       ablations use, see exp_local) with proof bundles priced in: under
       bundles, every replica of the receiving unit checks fi+1 embedded
       signatures per record before voting, so consensus pays
       Theta(n*fi) signature time per record; under cluster-sending Recv
       records carry no bundle (coverage was established by chain-head
       probes, one signature each) and only the base batch units are
       charged. Without this the crypto gap between the modes is
       invisible in throughput — signatures would be free. Depth 8 and
       one modeled verify job are pinned: the sweep compares the two
       paths at one fixed cost model. *)
    Runner.fresh_world ~knobs ~seed:(Int64.of_int (8000 + idx)) ~fi
      ~n_participants:2 ~cluster_send ~max_in_flight:8
      ~verify_cost:(Time.of_ms 0.4) ~verify_jobs:1
      ~extra_verify_units:Record.proof_units ()
  in
  let engine = w.Runner.engine and net = w.Runner.net and dep = w.Runner.dep in
  let n_nodes = (3 * fi) + 1 in
  (match scenario with
  | Loss -> Network.set_faults net { Network.no_faults with drop = 0.03 }
  | Byz ->
      (* fi withholding nodes per unit, at the top indices: the PBFT
         primaries (node 0) stay honest, so consensus sees exactly the
         2fi+1 honest quorum and the fault shows up purely in the
         communication layer — unanswered sign requests and probe
         requests on the source side, dropped transmits and probes on
         the destination side. *)
      List.iter
        (fun p ->
          for i = n_nodes - fi to n_nodes - 1 do
            Unit_node.set_byzantine_drop_comm (Deployment.node dep p i) true
          done)
        [ 0; 1 ]
  | Clean -> ());
  let api = Deployment.api dep 0 in
  let daemon = Deployment.daemon dep ~src:0 ~dest:1 in
  let total = Runner.scaled scale 24 in
  let waiting : (int, float -> unit) Hashtbl.t = Hashtbl.create 8 in
  let started : (int, Time.t) Hashtbl.t = Hashtbl.create 8 in
  Comm_daemon.on_acked daemon (fun frontier ->
      let ready =
        Hashtbl.fold
          (fun seq k acc -> if seq <= frontier then (seq, k) :: acc else acc)
          waiting []
      in
      List.iter
        (fun (seq, k) ->
          Hashtbl.remove waiting seq;
          let t0 = Hashtbl.find started seq in
          k (Time.to_ms (Time.diff (Engine.now engine) t0)))
        (List.sort (fun (a, _) (b, _) -> Int.compare a b) ready));
  (* Outstanding must exceed fi+1 at every swept n: cluster-sending
     amortizes a record's coverage over the stream's later heads, so a
     window smaller than one coverage wave degenerates to
     stop-and-wait. *)
  let stats, makespan =
    Runner.closed_loop engine ~total ~outstanding:8 ~run_one:(fun _i ~on_done ->
        let seq = Api.next_comm_seq api ~dest:1 in
        Hashtbl.replace started seq (Engine.now engine);
        Hashtbl.replace waiting seq on_done;
        Api.send api ~dest:1 (Runner.payload ~size:1000 seq) ~on_done:ignore)
  in
  let s = Bp_util.Stats.summarize stats in
  let delivered = float_of_int total in
  let off_diagonal m =
    let acc = ref 0 in
    Array.iteri
      (fun i row -> Array.iteri (fun j v -> if i <> j then acc := !acc + v) row)
      m;
    float_of_int !acc
  in
  let wan_msgs = off_diagonal (Network.message_matrix net) /. delivered in
  let wan_kb = off_diagonal (Network.traffic_matrix net) /. 1024.0 /. delivered in
  let verifies =
    let sum = ref 0 in
    List.iter
      (fun p ->
        Array.iter
          (fun node -> sum := !sum + Unit_node.verify_effort node)
          (Deployment.nodes_of dep p))
      [ 0; 1 ];
    float_of_int !sum /. delivered
  in
  {
    r_mode = mode;
    r_fi = fi;
    r_scenario = scenario;
    r_thr = delivered /. Time.to_sec makespan;
    r_p50 = s.Bp_util.Stats.p50;
    r_p99 = s.Bp_util.Stats.p99;
    r_wan_msgs = wan_msgs;
    r_wan_kb = wan_kb;
    r_verifies = verifies;
  }

let row r =
  [
    mode_name r.r_mode;
    string_of_int ((3 * r.r_fi) + 1);
    string_of_int r.r_fi;
    scenario_name r.r_scenario;
    Printf.sprintf "%.1f" r.r_thr;
    Report.ms r.r_p50;
    Report.ms r.r_p99;
    Printf.sprintf "%.1f" r.r_wan_msgs;
    Printf.sprintf "%.1f" r.r_wan_kb;
    Printf.sprintf "%.1f" r.r_verifies;
  ]

let find results mode fi scenario =
  List.find_opt
    (fun r ->
      (match (r.r_mode, mode) with
      | Bundle, Bundle | Cluster, Cluster -> true
      | Bundle, Cluster | Cluster, Bundle -> false)
      && r.r_fi = fi
      &&
      match (r.r_scenario, scenario) with
      | Clean, Clean | Loss, Loss | Byz, Byz -> true
      | _, _ -> false)
    results

let merge results =
  let metrics =
    List.concat_map
      (fun fi ->
        List.concat_map
          (fun sc ->
            match (find results Bundle fi sc, find results Cluster fi sc) with
            | Some b, Some c ->
                let tag =
                  Printf.sprintf "n%d_%s" ((3 * fi) + 1)
                    (match sc with
                    | Clean -> "clean"
                    | Loss -> "loss"
                    | Byz -> "byz")
                in
                [
                  (Printf.sprintf "%s_speedup" tag, c.r_thr /. b.r_thr);
                  (Printf.sprintf "%s_p99_ratio" tag, c.r_p99 /. b.r_p99);
                  ( Printf.sprintf "%s_wan_msgs_ratio" tag,
                    c.r_wan_msgs /. b.r_wan_msgs );
                  ( Printf.sprintf "%s_verify_ratio" tag,
                    c.r_verifies /. b.r_verifies );
                ]
            | _, _ -> [])
          [ Clean; Loss; Byz ])
      fis
  in
  [
    {
      Report.id = "ablation-clustersend";
      title =
        "Cluster-sending vs fi+1-signature bundles (WAN cost per delivered \
         record)";
      paper_ref =
        "extension: Hellings & Sadoghi, byzantine cluster-sending in expected \
         constant communication";
      header =
        [
          "mode";
          "n";
          "fi";
          "scenario";
          "rec/s";
          "p50 ms";
          "p99 ms";
          "WAN msg/rec";
          "WAN KB/rec";
          "verifies/rec";
        ];
      rows = List.map row results;
      metrics;
      notes =
        [
          "C->O closed loop (outstanding 8); delivery = source daemon's cumulative ack frontier";
          "byz withhold: fi comm-muted nodes per unit (top indices), primaries honest";
          "verifies/rec sums bundle checks and chain-head checks over both units' nodes";
          "expected shape: bundle verifies/rec grows ~n*(fi+1); cluster stays ~n + fi";
        ];
    };
  ]

let plan ~knobs ~scale =
  Runner.Plan
    { tasks = List.mapi (fun i c -> task ~knobs ~scale i c) combos; merge }
