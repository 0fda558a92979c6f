(* Geo-correlated failures (§V / Fig. 8): surviving a whole-datacenter
   outage.

   With fg = 1, each commit at California must additionally be mirrored
   and attested by one other participant before it counts. The closest
   mirror is Oregon (19 ms RTT). Mid-run we take Oregon's datacenter down
   — a benign geo-correlated failure — and watch commits reroute to
   Virginia, at higher latency but without losing anything. It exits 1
   if an entry is left unproved.

   Run with:  dune exec examples/failover_demo.exe *)

open Bp_sim
open Blockplane

let () =
  let engine = Engine.create ~seed:31415L () in
  let network = Network.create engine Topology.aws_paper () in
  let dep =
    Deployment.create ~network ~n_participants:4 ~fi:1 ~fg:1
      ~app:(module App.Null)
      ()
  in
  let c = Topology.dc_california in
  let api = Deployment.api dep c in
  let geo = Deployment.geo dep c in
  Geo.on_suspect geo (fun p ->
      Printf.printf "[%7.1f ms] !! mirror participant %s suspected\n"
        (Time.to_ms (Engine.now engine))
        (Topology.name Topology.aws_paper p));

  let commit i ~k =
    let started = Engine.now engine in
    Api.log_commit api (Printf.sprintf "entry-%d" i) ~on_done:(fun () ->
        Printf.printf
          "[%7.1f ms] entry-%d committed+proved in %.1f ms (targets: %s)\n"
          (Time.to_ms (Engine.now engine))
          i
          (Time.to_ms (Time.diff (Engine.now engine) started))
          (String.concat ","
             (List.map (Topology.name Topology.aws_paper) (Geo.current_targets geo)));
        k ())
  in
  let rec phase1 i =
    if i <= 3 then commit i ~k:(fun () -> phase1 (i + 1))
    else begin
      Printf.printf "\n>>> killing the Oregon datacenter <<<\n\n";
      Network.crash_dc network Topology.dc_oregon;
      phase2 4
    end
  and phase2 i = if i <= 7 then commit i ~k:(fun () -> phase2 (i + 1)) in
  phase1 1;
  Engine.run ~until:(Time.of_sec 10.0) engine;
  let proved =
    List.for_all (fun pos -> Geo.is_proved geo ~pos) [ 0; 1; 2; 3; 4; 5; 6 ]
  in
  Printf.printf "\nall 7 entries proved: %b\n" proved;
  if not proved then exit 1
