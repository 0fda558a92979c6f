(* A globally-distributed bank on Blockplane — the mission-critical
   workload class the paper targets (§VI-D).

   Ledgers live at California and Ireland. A cross-datacenter transfer
   debits the source ledger, ships a credit message through Blockplane's
   communication interface, and credits the destination only when the
   verified message arrives. Along the way we let a byzantine replica try
   to mint money and watch the verification routines stop it. It exits 1
   if an attack is accepted or a unit's replicas disagree.

   Run with:  dune exec examples/bank_transfer.exe *)

open Bp_sim
open Blockplane
open Bp_apps

let () =
  let engine = Engine.create ~seed:7777L () in
  let network = Network.create engine Topology.aws_paper () in
  let dep =
    Deployment.create ~network ~n_participants:4 ~fi:1
      ~app:(module Bank.Ledger)
      ()
  in
  let c = Topology.dc_california and i = Topology.dc_ireland in
  let bank_c = Bank.attach (Deployment.api dep c) in
  let _bank_i = Bank.attach (Deployment.api dep i) in

  let log fmt =
    Printf.ksprintf
      (fun s -> Printf.printf "[%7.1f ms] %s\n" (Time.to_ms (Engine.now engine)) s)
      fmt
  in

  (* Open an account and move money across the Atlantic. *)
  Bank.open_account bank_c "alice" 500 ~on_done:(fun () ->
      log "opened alice@California with balance 500";
      Bank.transfer bank_c ~from_account:"alice" ~dest:i ~to_account:"bob" 200
        ~on_done:(fun () -> log "debit committed at California; credit in flight"));
  Engine.run ~until:(Time.of_sec 2.0) engine;

  let show () =
    Printf.printf "  alice@California = %s\n"
      (match Bank.balance (Deployment.node dep c 0) "alice" with
      | Some b -> string_of_int b
      | None -> "-");
    Printf.printf "  bob@Ireland      = %s\n"
      (match Bank.balance (Deployment.node dep i 0) "bob" with
      | Some b -> string_of_int b
      | None -> "-")
  in
  Printf.printf "\nledgers after the transfer:\n";
  show ();

  (* Attack 1: overdraft. *)
  let overdraft_rejected = ref false in
  Bank.withdraw bank_c "alice" 10_000
    ~on_rejected:(fun () -> overdraft_rejected := true)
    ~on_done:(fun () -> assert false);
  (* Attack 2: a byzantine replica proposes a credit with no transfer
     behind it. *)
  let mint_rejected = ref false in
  Api.submit_record (Deployment.api dep i)
    (Record.Commit (Bank.encode_op (Bank.Credit_from_transfer ("bob", 1_000_000))))
    ~on_done:(fun () -> assert false)
    ~on_rejected:(fun () -> mint_rejected := true);
  Engine.run ~until:(Time.of_sec 4.0) engine;

  Printf.printf "\nattacks:\n";
  Printf.printf "  overdraft rejected:     %b\n" !overdraft_rejected;
  Printf.printf "  minted credit rejected: %b\n" !mint_rejected;
  Printf.printf "\nfinal ledgers (unchanged by the attacks):\n";
  show ();
  let agree_c = Deployment.app_digests_agree dep c
  and agree_i = Deployment.app_digests_agree dep i in
  Printf.printf "units consistent: %b %b\n" agree_c agree_i;
  if not (!overdraft_rejected && !mint_rejected && agree_c && agree_i) then
    exit 1
