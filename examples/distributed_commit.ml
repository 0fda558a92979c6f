(* Byzantized two-phase commit — atomic transactions across datacenters
   (the §III-C transaction-processing use case).

   A key-value store is sharded over four datacenters, one shard per
   unit. A transaction that touches several shards runs the shard
   router's two-phase commit, coordinated by its lowest shard
   (California here). Every step and every 2PC message is a record in a
   unit's Local Log, judged by the evidence that unit has already
   executed: a shard cannot vote YES for an op its store rejects, the
   coordinator cannot decide COMMIT without every YES vote, and no unit
   can send a decision it did not commit. It exits 1 if the byzantine
   force-COMMIT is accepted, if the forged COMMIT decision sent after
   txn-2's abort commits, or if Oregon (the leg that voted YES) applies
   txn-2.

   Run with:  dune exec examples/distributed_commit.exe *)

open Bp_sim
open Blockplane

(* Each shard's store. An op is ["put KEY VALUE"] or ["del KEY"]; its
   verification routine rejects deleting an absent key, and that
   rejection is the shard's NO vote. *)
module Smap = Map.Make (String)

module Store = struct
  type state = { mutable kv : string Smap.t }

  let create ~participant:_ ~n_participants:_ = { kv = Smap.empty }

  let verify st = function
    | Record.Commit op -> (
        match String.split_on_char ' ' op with
        | [ "put"; _; _ ] -> true
        | [ "del"; key ] -> Smap.mem key st.kv
        | _ -> false)
    | Record.Comm _ | Record.Recv _ | Record.Mirrored _ -> true

  let apply st ~hash:_ = function
    | Record.Commit op -> (
        match String.split_on_char ' ' op with
        | [ "put"; key; value ] -> st.kv <- Smap.add key value st.kv
        | [ "del"; key ] -> st.kv <- Smap.remove key st.kv
        | _ -> ())
    | Record.Comm _ | Record.Recv _ | Record.Mirrored _ -> ()

  let describe st =
    String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) (Smap.bindings st.kv))

  let digest st = Bp_crypto.Sha256.digest (describe st)
end

let get node key =
  List.find_map
    (fun entry ->
      match String.split_on_char '=' entry with
      | [ k; v ] when String.equal k key -> Some v
      | _ -> None)
    (String.split_on_char ';' (App.describe (Unit_node.app node)))

(* Keys ["p/..."] live on shard [p]. *)
let put key value = (key, Printf.sprintf "put %s %s" key value)
let del key = (key, "del " ^ key)

let () =
  let engine = Engine.create ~seed:271828L () in
  let network = Network.create engine Topology.aws_paper () in
  let dep =
    Deployment.create ~network ~n_participants:4 ~fi:1
      ~app:(module Store)
      ~shard_map:(Shard.make ~policy:(Shard.Range [| "1"; "2"; "3" |]) ~shards:4 ())
      ()
  in
  let router = Deployment.shard_router dep in
  let log fmt =
    Printf.ksprintf
      (fun s -> Printf.printf "[%7.1f ms] %s\n" (Time.to_ms (Engine.now engine)) s)
      fmt
  in
  let name p = Topology.name Topology.aws_paper p in
  let submit label ops =
    Shard.submit router ops
      ~on_done:(fun () -> log "%s COMMITTED" label)
      ~on_aborted:(fun () -> log "%s ABORTED" label)
  in

  (* Transaction 1 (txid x0): provision a user across all four shards. *)
  submit "txn-1 (provision across C, O, V, I):"
    [
      put "0/user:42" "provisioned";
      put "1/user:42:profile" "alice";
      put "2/user:42:balance" "100";
      put "3/user:42:settings" "default";
    ];
  Engine.run ~until:(Time.of_sec 2.0) engine;

  (* Transaction 2 (txid x1): Virginia's leg cannot apply, so Virginia
     votes NO and the transaction aborts. As California's abort decide
     executes, California also sends a COMMIT decision to Oregon, whose
     leg voted YES. *)
  let abort = Shard.xs_payload (Shard.Xs_decide { txid = "x1"; commit = false }) in
  (* Shard's Decide {txid = "x1"; commit = true} message, as the router
     encodes it. *)
  let forged =
    "__xsm:"
    ^ Bp_codec.Wire.encode (fun e ->
          Bp_codec.Wire.u8 e 2;
          Bp_codec.Wire.string e "x1";
          Bp_codec.Wire.bool e true)
  in
  let forged_committed = ref false in
  let api0 = Deployment.api dep 0 in
  Api.on_commit api0 (fun payload ->
      if String.equal payload abort then
        Api.send api0 ~dest:1 forged ~on_done:(fun () -> forged_committed := true));
  submit "txn-2 (one impossible leg):        "
    [
      put "0/user:43" "provisioned";
      put "1/user:43:profile" "bob";
      del "2/user:43:balance" (* does not exist *);
    ];
  Engine.run ~until:(Time.of_sec 4.0) engine;

  Printf.printf "\nshards after both transactions:\n";
  List.iter
    (fun (p, key) ->
      Printf.printf "  %-10s %-20s = %s\n" (name p) key
        (Option.value ~default:"(absent)" (get (Deployment.node dep p 0) key)))
    [
      (1, "1/user:42:profile");
      (2, "2/user:42:balance");
      (3, "3/user:42:settings");
      (1, "1/user:43:profile");
    ];

  let txn2_applied =
    Array.exists
      (fun node -> Option.is_some (get node "1/user:43:profile"))
      (Deployment.nodes_of dep 1)
  in
  Printf.printf "\nforged COMMIT decision to %s after the abort committed: %b\n" (name 1)
    !forged_committed;
  Printf.printf "any %s node applied the aborted txn-2: %b\n" (name 1) txn2_applied;

  (* A byzantine replica tries to force-commit the refused transaction. *)
  let rejected = ref false in
  Api.submit_record api0
    (Record.Commit (Shard.xs_payload (Shard.Xs_decide { txid = "x1"; commit = true })))
    ~on_done:(fun () -> assert false)
    ~on_rejected:(fun () -> rejected := true);
  Engine.run ~until:(Time.of_sec 6.0) engine;
  Printf.printf "\nbyzantine force-COMMIT of the aborted txn rejected: %b\n" !rejected;
  let st = Shard.stats router in
  Printf.printf "coordinator tally: %d committed, %d aborted\n" st.Shard.committed
    st.Shard.aborted;
  if (not !rejected) || !forged_committed || txn2_applied then exit 1
