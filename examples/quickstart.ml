(* Quickstart: byzantize the paper's distributed counter (Algorithm 1).

   Four participants — one per simulated AWS datacenter — each backed by
   a Blockplane unit of 4 nodes (fi = 1). A user triggers requests at
   California addressed to Virginia; Virginia's counter increments once
   per *genuinely received* message, on every replica of its unit, even
   though any single node could be byzantine. It exits 1 if the replicas
   disagree or the forged increment is accepted.

   Run with:  dune exec examples/quickstart.exe *)

open Bp_sim
open Blockplane

let () =
  (* 1. A deterministic world: engine + the paper's four-DC topology. *)
  let engine = Engine.create ~seed:2024L () in
  let network = Network.create engine Topology.aws_paper () in

  (* 2. Deploy Blockplane: 4 participants, fi=1 (4 nodes each), running
        the counter protocol with its verification routines. *)
  let dep =
    Deployment.create ~network ~n_participants:4 ~fi:1
      ~app:(module Bp_apps.Counter.Protocol)
      ()
  in

  let california = Topology.dc_california and virginia = Topology.dc_virginia in
  let sender = Bp_apps.Counter.attach (Deployment.api dep california) in
  let _receiver = Bp_apps.Counter.attach (Deployment.api dep virginia) in

  (* 3. Three user requests: log-commit + send, per Algorithm 1. *)
  for _ = 1 to 3 do
    Bp_apps.Counter.user_request sender ~dest:virginia ~on_done:(fun () ->
        Printf.printf "[%6.1f ms] request committed and sent at California\n"
          (Time.to_ms (Engine.now engine)))
  done;

  (* 4. Let the simulated world run for a second of virtual time. *)
  Engine.run ~until:(Time.of_sec 1.0) engine;

  (* 5. Every replica of Virginia's unit agrees on the counter. *)
  Printf.printf "\nVirginia's unit after the run:\n";
  Array.iter
    (fun node ->
      Printf.printf "  node %s: counter = %d\n"
        (Addr.to_string (Unit_node.addr node))
        (Bp_apps.Counter.value node))
    (Deployment.nodes_of dep virginia);
  let agree = Deployment.app_digests_agree dep virginia in
  Printf.printf "replicas agree: %b\n" agree;

  (* 6. The byzantine attack from the paper: committing an increment with
        no received message behind it is rejected by the verification
        routines. *)
  let rejected = ref false in
  Api.submit_record (Deployment.api dep virginia) (Record.Commit "increment-counter")
    ~on_done:ignore
    ~on_rejected:(fun () -> rejected := true);
  Engine.run ~until:(Time.of_sec 2.0) engine;
  Printf.printf "\nforged increment rejected by verification routines: %b\n" !rejected;
  Printf.printf "counter still %d\n"
    (Bp_apps.Counter.value (Deployment.node dep virginia 0));
  if not (agree && !rejected) then exit 1
