(* Byzantizing a benign consensus protocol (§VI-E / §VIII-D).

   Plain Paxos tolerates crashes but not lies. Run unchanged behind the
   Blockplane API — the same Bp_paxos.Replica as the plain baseline, with
   every state change log-committed and every message through
   send/receive — it tolerates byzantine nodes *inside* each datacenter
   while keeping Paxos's one-round wide-area latency.

   This demo elects a leader at Virginia, replicates a few commands, and
   prints the wide-area latency of each Replication phase; compare them
   with Table I's 70 ms RTT from Virginia to its closest majority. Then a
   byzantine node in California grants itself send credits and sends a
   prepare that no driver asked for; every node re-executes Paxos, so
   nothing owes that prepare and it is rejected. The demo exits 1 if the
   election or a command fails, if a unit's replicas disagree, or unless
   the forged prepare is rejected.

   Run with:  dune exec examples/byzantized_paxos.exe *)

open Bp_sim
open Blockplane
open Bp_apps

let () =
  let engine = Engine.create ~seed:99L () in
  let network = Network.create engine Topology.aws_paper () in
  let dep =
    Deployment.create ~network ~n_participants:4 ~fi:1
      ~app:(module Byz_paxos.Protocol)
      ()
  in
  let drivers =
    Array.init 4 (fun p -> Byz_paxos.attach (Deployment.api dep p) ~n_participants:4)
  in
  let v = Topology.dc_virginia in
  let failed = ref false in

  Printf.printf "electing a leader at Virginia...\n";
  let elected_at = ref Time.zero in
  Byz_paxos.elect drivers.(v) ~on_elected:(fun ok ->
      elected_at := Engine.now engine;
      if not ok then failed := true;
      Printf.printf "[%7.1f ms] election %s\n"
        (Time.to_ms (Engine.now engine))
        (if ok then "won" else "lost"));
  Engine.run ~until:(Time.of_sec 2.0) engine;

  Printf.printf "\nreplicating three commands (paper: ~70-78 ms each from Virginia):\n";
  let rec replicate_seq i =
    if i <= 3 then begin
      let started = Engine.now engine in
      Byz_paxos.replicate drivers.(v)
        (Printf.sprintf "command-%d" i)
        ~on_result:(fun ok ->
          if not ok then failed := true;
          Printf.printf "[%7.1f ms] command-%d %s in %.1f ms\n"
            (Time.to_ms (Engine.now engine))
            i
            (if ok then "committed" else "failed")
            (Time.to_ms (Time.diff (Engine.now engine) started));
          replicate_seq (i + 1))
    end
  in
  replicate_seq 1;
  Engine.run ~until:(Time.of_sec 4.0) engine;

  Printf.printf "\na byzantine node in California forges a paxos prepare...\n";
  let api0 = Deployment.api dep Topology.dc_california in
  Api.submit_record api0 (Record.Commit "evt:prepare:16") ~on_done:ignore ~on_rejected:ignore;
  let forged = ref "pending" in
  Api.submit_record api0
    (Record.Comm
       {
         Record.dest = v;
         comm_seq = Api.next_comm_seq api0 ~dest:v;
         payload =
           Bp_paxos.Msg.encode
             (Bp_paxos.Msg.Prepare
                { ballot = { Bp_paxos.Ballot.round = 7; node = 0 }; from_instance = 0 });
       })
    ~on_done:(fun () -> forged := "committed")
    ~on_rejected:(fun () -> forged := "rejected");
  Engine.run ~until:(Time.of_sec 6.0) engine;
  Printf.printf "forged prepare: %s\n" !forged;

  Printf.printf "\ndecided at the leader: %s\n"
    (String.concat ", "
       (List.rev_map (fun (i, value) -> Printf.sprintf "#%d=%s" i value)
          (Byz_paxos.decided drivers.(v))));
  let agree = List.for_all (Deployment.app_digests_agree dep) [ 0; 1; 2; 3 ] in
  Printf.printf "every unit's protocol replicas agree: %b\n" agree;
  if
    !failed || (not agree)
    || List.length (Byz_paxos.decided drivers.(v)) <> 3
    || not (String.equal !forged "rejected")
  then exit 1
