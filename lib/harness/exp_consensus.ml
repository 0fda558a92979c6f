open Bp_sim

let repetitions scale = Runner.scaled scale 10

(* Paper readings (SVIII-D text + Fig. 7): paxos = RTT to the closest
   majority; Blockplane-paxos within 0-33% above; PBFT 102-157 ms;
   Hierarchical PBFT between paxos and Blockplane-paxos. *)
let paper = function
  | 0 -> ("61", "~81", "102", "61-81") (* California *)
  | 1 -> ("79", "~87", "~110", "79-87") (* Oregon *)
  | 2 -> ("70", "~78", "~120", "70-78") (* Virginia *)
  | _ -> ("130", "~130", "157", "~130") (* Ireland *)

(* -------- plain paxos: one node per datacenter -------- *)

let measure_paxos ~leader ~reps ~seed =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper () in
  let addrs = Array.init 4 (fun p -> Addr.make ~dc:p ~idx:0) in
  let cfg = { Bp_paxos.Replica.nodes = addrs; election_timeout = Time.of_ms 400.0 } in
  let replicas =
    Array.init 4 (fun i ->
        Bp_paxos.Replica.create (Bp_net.Transport.create net addrs.(i)) cfg ~id:i
          ~on_learn:(fun _ _ -> ()))
  in
  let ready = ref false in
  Bp_paxos.Replica.try_lead replicas.(leader) ~on_elected:(fun () -> ready := true);
  Engine.run ~until:(Time.of_sec 2.0) engine;
  if not !ready then failwith "paxos election failed";
  Runner.sequential engine ~n:reps ~warmup:1 ~run_one:(fun i ~on_done ->
      Bp_paxos.Replica.propose replicas.(leader)
        (Printf.sprintf "v%d" i)
        ~on_commit:(fun _ -> on_done ()))

(* -------- Blockplane-paxos -------- *)

let measure_bp_paxos ~leader ~reps ~seed =
  let world =
    Runner.fresh_world ~seed
      ~app:(module Bp_apps.Byz_paxos.Protocol)
      ()
  in
  let drivers =
    Array.init 4 (fun p ->
        Bp_apps.Byz_paxos.attach (Blockplane.Deployment.api world.Runner.dep p)
          ~n_participants:4)
  in
  let ready = ref false in
  Bp_apps.Byz_paxos.elect drivers.(leader) ~on_elected:(fun ok -> ready := ok);
  Engine.run ~until:(Time.of_sec 5.0) world.Runner.engine;
  if not !ready then failwith "blockplane-paxos election failed";
  Runner.sequential world.Runner.engine ~n:reps ~warmup:1 ~run_one:(fun i ~on_done ->
      Bp_apps.Byz_paxos.replicate drivers.(leader)
        (Printf.sprintf "v%d" i)
        ~on_result:(fun ok ->
          if not ok then failwith "blockplane-paxos lost leadership mid-benchmark";
          on_done ()))

(* -------- flat geo-PBFT: one replica per datacenter -------- *)

let measure_flat_pbft ~leader ~reps ~seed =
  let engine, _net, client =
    Runner.flat_pbft ~seed ~primary:leader ~client_dc:leader
  in
  Runner.sequential engine ~n:reps ~warmup:1 ~run_one:(fun i ~on_done ->
      Bp_pbft.Client.submit client (Printf.sprintf "v%d" i) ~on_result:(fun _ ->
          on_done ()))

(* -------- hierarchical PBFT -------- *)

let measure_hier ~leader ~reps ~seed =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper () in
  let h = Bp_apps.Hier_pbft.create ~network:net ~n_participants:4 () in
  let ready = ref false in
  Bp_apps.Hier_pbft.elect h ~leader ~on_elected:(fun ok -> ready := ok);
  Engine.run ~until:(Time.of_sec 2.0) engine;
  if not !ready then failwith "hierarchical PBFT election failed";
  Runner.sequential engine ~n:reps ~warmup:1 ~run_one:(fun i ~on_done ->
      Bp_apps.Hier_pbft.replicate h ~leader (Printf.sprintf "v%d" i) ~on_committed:on_done)

(* One task per (leader, system) cell — 16 independent simulations. The
   seed formula matches the old nested loop, so results are unchanged. *)
let fig7_task ~reps ~leader k () =
  let seed = Int64.of_int (((5000 + leader) * 10) + k) in
  Bp_util.Stats.mean
    (match k with
    | 1 -> measure_paxos ~leader ~reps ~seed
    | 2 -> measure_bp_paxos ~leader ~reps ~seed
    | 3 -> measure_flat_pbft ~leader ~reps ~seed
    | _ -> measure_hier ~leader ~reps ~seed)

(* Leader-major task order; the merge folds each leader's four cells
   back into one row. *)
let fig7_merge means =
  let topo = Topology.aws_paper in
  let arr = Array.of_list means in
  let rows =
    List.init 4 (fun leader ->
        let p_paxos, p_bp, p_pbft, p_hier = paper leader in
        let m k = arr.((leader * 4) + k) in
        [
          Topology.name topo leader;
          Printf.sprintf "%s (%s)" (Report.ms (m 0)) p_paxos;
          Printf.sprintf "%s (%s)" (Report.ms (m 1)) p_bp;
          Printf.sprintf "%s (%s)" (Report.ms (m 2)) p_pbft;
          Printf.sprintf "%s (%s)" (Report.ms (m 3)) p_hier;
        ])
  in
  [
    {
      Report.id = "fig7";
      title =
        "Replication latency of Blockplane-paxos vs paxos, PBFT, Hierarchical PBFT";
      paper_ref = "Fig. 7, SVIII-D: leader at each datacenter; measured (paper) in ms";
      header = [ "leader"; "paxos"; "blockplane-paxos"; "PBFT"; "hier. PBFT" ];
      rows;
      notes =
        [
          "expected order: paxos <= hier. PBFT <= blockplane-paxos << flat PBFT";
          "blockplane-paxos pays only local-commit overhead on top of paxos (one wide-area round)";
        ];
    };
  ]

let fig7_plan ~scale =
  let reps = repetitions scale in
  let tasks =
    List.concat_map
      (fun leader ->
        List.map (fun k -> fig7_task ~reps ~leader k) [ 1; 2; 3; 4 ])
      [ 0; 1; 2; 3 ]
  in
  Runner.Plan { tasks; merge = fig7_merge }
