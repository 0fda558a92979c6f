open Bp_sim
module Msg = Bp_paxos.Msg
module Replica = Bp_paxos.Replica

type agent = {
  client : Bp_pbft.Client.t; (* into the local PBFT cluster *)
  replica : Replica.t;
  mutable decided : int;
}

type t = agent array

let wide_tag = "hier.wide"
let agent_addr p = Addr.make ~dc:p ~idx:80

(* The agent's paxos network: a reply is committed through the local PBFT
   cluster before it goes out; broadcasts go out directly. Both travel
   straight over the wide area, with no transmission records. *)
let net transport client ~n =
  let dsts = Array.init n agent_addr in
  {
    Replica.send =
      (fun ~dst msg ->
        let payload = Msg.encode msg in
        Bp_pbft.Client.submit client payload ~on_result:(fun _ ->
            Bp_net.Transport.send transport ~dst:dsts.(dst) ~tag:wide_tag payload));
    broadcast =
      (fun msg ->
        Bp_net.Transport.broadcast transport ~dsts ~tag:wide_tag (Msg.encode msg));
  }

let create ~network ~n_participants ?(fi = 1) () =
  let engine = Network.engine network in
  let keystore =
    Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine))
  in
  (* One cache per principal, keeping nothing: this baseline memoizes no
     verdict or digest. *)
  let new_cache () =
    Bp_crypto.Verify_cache.create ~capacity:0 ~digest_budget:0 keystore
  in
  Array.init n_participants (fun p ->
      let nodes = Array.init ((3 * fi) + 1) (fun i -> Addr.make ~dc:p ~idx:i) in
      let cfg =
        Bp_pbft.Config.make ~nodes ~keystore ~tag:(Printf.sprintf "h%d" p) ()
      in
      Array.iteri
        (fun i addr ->
          let transport = Bp_net.Transport.create network addr in
          ignore
            (Bp_pbft.Replica.create ~cache:(new_cache ()) transport cfg ~id:i
               ~execute:(fun ~seq:_ r -> "ok:" ^ string_of_int (String.length r.Bp_pbft.Msg.op))
               ()))
        nodes;
      let transport = Bp_net.Transport.create network (agent_addr p) in
      let client = Bp_pbft.Client.create ~cache:(new_cache ()) transport cfg in
      let replica =
        Replica.of_net (net transport client ~n:n_participants) ~n:n_participants
          ~id:p ~on_learn:(fun _ _ -> ())
      in
      Bp_net.Transport.set_handler transport ~tag:wide_tag (fun ~src ~hint:_ payload ->
          match Msg.decode payload with
          | Ok msg -> Replica.receive replica ~src:src.Addr.dc msg
          | Error _ -> ());
      { client; replica; decided = 0 })

let elect t ~leader ~on_elected =
  Replica.try_lead t.(leader).replica
    ~on_elected:(fun () -> on_elected true)
    ~on_nack:(fun () -> on_elected false)

let replicate t ~leader value ~on_committed =
  let agent = t.(leader) in
  if not (Replica.is_leader agent.replica) then
    failwith "Hier_pbft.replicate: not the leader";
  (* Locally commit the replication intent, then go wide; commit the
     decision locally before reporting. *)
  Bp_pbft.Client.submit agent.client ("replicate:" ^ value) ~on_result:(fun _ ->
      Replica.propose agent.replica value ~on_commit:(fun instance ->
          Bp_pbft.Client.submit agent.client
            (Printf.sprintf "decided:%d" instance)
            ~on_result:(fun _ ->
              agent.decided <- agent.decided + 1;
              on_committed ())))

let decided_count t p = t.(p).decided
