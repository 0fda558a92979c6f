open Bp_sim

let split_traffic net =
  let m = Network.traffic_matrix net in
  let intra = ref 0 and wide = ref 0 in
  Array.iteri
    (fun i row ->
      Array.iteri (fun j b -> if i = j then intra := !intra + b else wide := !wide + b) row)
    m;
  (!intra, !wide)

let run_bp_paxos ~reps ~seed =
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
  Bp_apps.Byz_paxos.elect drivers.(2) ~on_elected:(fun ok -> ready := ok);
  Engine.run ~until:(Time.of_sec 5.0) world.Runner.engine;
  if not !ready then failwith "locality: election failed";
  ignore
    (Runner.sequential world.Runner.engine ~n:reps ~warmup:0 ~run_one:(fun i ~on_done ->
         Bp_apps.Byz_paxos.replicate drivers.(2)
           (Printf.sprintf "v%d" i)
           ~on_result:(fun _ -> on_done ())));
  split_traffic world.Runner.net

let run_flat_pbft ~reps ~seed =
  let engine, net, client = Runner.flat_pbft ~seed ~primary:0 ~client_dc:2 in
  ignore
    (Runner.sequential engine ~n:reps ~warmup:0 ~run_one:(fun i ~on_done ->
         Bp_pbft.Client.submit client (Printf.sprintf "v%d" i) ~on_result:(fun _ ->
             on_done ())));
  split_traffic net

let locality_merge ~reps results =
  let (bp_intra, bp_wide), (fp_intra, fp_wide) =
    match results with
    | [ a; b ] -> (a, b)
    | _ -> failwith "locality: expected two traffic splits"
  in
  let row name (intra, wide) =
    let total = intra + wide in
    [
      name;
      Printf.sprintf "%d" (intra / 1000);
      Printf.sprintf "%d" (wide / 1000);
      Printf.sprintf "%.0f%%" (100.0 *. float_of_int wide /. float_of_int total);
    ]
  in
  [
    {
      Report.id = "locality";
      title = "Where the bytes go: Blockplane-paxos vs flat PBFT";
      paper_ref =
        Printf.sprintf
          "SIII-A locality argument; %d replicated commands, leader at Virginia" reps;
      header = [ "system"; "intra-DC KB"; "wide-area KB"; "wide-area share" ];
      rows = [ row "blockplane-paxos" (bp_intra, bp_wide); row "flat PBFT" (fp_intra, fp_wide) ];
      notes =
        [
          "Blockplane masks byzantine failures inside datacenters, so its byzantine-protocol";
          "traffic is intra-DC and only the benign paxos pattern crosses the WAN;";
          "flat PBFT runs all three quadratic phases across the wide area";
        ];
    };
  ]

let locality_plan ~scale =
  let reps = Runner.scaled scale 10 in
  Runner.Plan
    {
      tasks =
        [
          (fun () -> run_bp_paxos ~reps ~seed:6700L);
          (fun () -> run_flat_pbft ~reps ~seed:6701L);
        ];
      merge = locality_merge ~reps;
    }
