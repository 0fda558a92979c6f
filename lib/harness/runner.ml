open Bp_sim

type world = {
  engine : Engine.t;
  net : Network.t;
  dep : Blockplane.Deployment.t;
}

(* Depth 1 (stop-and-wait) unless the caller picks a depth: fig4,
   table2 and figs. 5-8 are recorded at it, where Config.make alone
   would default to 8. *)
let fresh_world ?(fi = 1) ?(fg = 0) ?(seed = 4242L) ?(n_participants = 4)
    ?scheme ?batch_max ?batch_min_fill ?batch_hold ?(max_in_flight = 1)
    ?shard_map
    ?(app = (module Blockplane.App.Null : Blockplane.App.S)) () =
  let engine = Engine.create ~seed () in
  (* More participants than the paper's four regions: tile the Table I
     topology (metro twins per region) so every unit still gets its own
     datacenter. Deployments within the first four sites are unchanged. *)
  let topology =
    if n_participants <= Topology.num_dcs Topology.aws_paper then
      Topology.aws_paper
    else Topology.tiled Topology.aws_paper ~sites:n_participants
  in
  let net = Network.create engine topology () in
  let dep =
    Blockplane.Deployment.create ~network:net ~n_participants ~fi ~fg ?scheme
      ?batch_max ?batch_min_fill ?batch_hold ~max_in_flight ?shard_map ~app ()
  in
  { engine; net; dep }

let flat_pbft ~seed ~primary ~client_dc =
  let engine = Engine.create ~seed () in
  let net = Network.create engine Topology.aws_paper () in
  let keystore = Bp_crypto.Signer.create (Bp_util.Rng.split (Engine.rng engine)) in
  (* Rotate the node order so the view-0 primary sits at [primary]. *)
  let addrs = Array.init 4 (fun i -> Addr.make ~dc:((primary + i) mod 4) ~idx:0) in
  let cfg =
    Bp_pbft.Config.make ~nodes:addrs ~keystore ~request_timeout:(Time.of_sec 5.0) ()
  in
  (* One cache per principal, keeping nothing: the baseline memoizes no
     verdict or digest. *)
  let new_cache () =
    Bp_crypto.Verify_cache.create ~capacity:0 ~digest_budget:0 keystore
  in
  Array.iteri
    (fun i addr ->
      ignore
        (Bp_pbft.Replica.create ~cache:(new_cache ())
           (Bp_net.Transport.create net addr)
           cfg ~id:i
           ~execute:(fun ~seq:_ _ -> "ok")
           ()))
    addrs;
  let client =
    Bp_pbft.Client.create ~cache:(new_cache ())
      (Bp_net.Transport.create net (Addr.make ~dc:client_dc ~idx:100))
      cfg
  in
  (engine, net, client)

(* [size] bytes: [stamp], cut to fit, then 'x' padding. *)
let stamped ~size stamp =
  let b = Bytes.make size 'x' in
  Bytes.blit_string stamp 0 b 0 (Stdlib.min (String.length stamp) size);
  Bytes.unsafe_to_string b

let payload ~size i =
  if size <= 0 then "" else stamped ~size (Printf.sprintf "batch-%d;" i)

let client_payload ~client i = stamped ~size:1000 (Printf.sprintf "c%d;op%d;" client i)

(* Step until the workload completes — the deployment's periodic timers
   (reserve probes, daemon retries) never drain the queue on their own. *)
let drive engine ~what ~finished =
  let steps = ref 0 in
  while (not (finished ())) && Engine.step engine do
    incr steps;
    if !steps > 200_000_000 then failwith (what ^ ": runaway simulation")
  done;
  if not (finished ()) then
    failwith (what ^ ": workload did not finish (deadlock in protocol?)")

let elapsed_ms engine started = Time.to_ms (Time.diff (Engine.now engine) started)

let sequential engine ~n ~warmup ~run_one =
  let stats = Bp_util.Stats.create () in
  let total = warmup + n in
  let finished = ref false in
  let rec go i =
    if i >= total then finished := true
    else
      let started = Engine.now engine in
      run_one i ~on_done:(fun () ->
          if i >= warmup then Bp_util.Stats.add stats (elapsed_ms engine started);
          go (i + 1))
  in
  go 0;
  drive engine ~what:"Runner.sequential" ~finished:(fun () -> !finished);
  stats

let closed_loop engine ~total ~outstanding ~run_one =
  let stats = Bp_util.Stats.create () in
  let next = ref 0 in
  let completed = ref 0 in
  let finished = ref false in
  let t0 = Engine.now engine in
  let rec launch () =
    if !next < total then begin
      let i = !next in
      incr next;
      let started = Engine.now engine in
      run_one i ~on_done:(fun () ->
          Bp_util.Stats.add stats (elapsed_ms engine started);
          incr completed;
          if !completed >= total then finished := true else launch ())
    end
  in
  (* Prime the window; each completion immediately launches a successor,
     keeping [outstanding] operations in flight until the tail. *)
  for _ = 1 to Stdlib.min outstanding total do
    launch ()
  done;
  drive engine ~what:"Runner.closed_loop" ~finished:(fun () -> !finished);
  (stats, Time.diff (Engine.now engine) t0)

let scaled s n = Stdlib.max 1 (int_of_float (Float.round (s *. float_of_int n)))

(* An experiment decomposed for [Pool.run]: independent closed
   tasks (each builds its own engine/network/deployment from its own
   seed — nothing is shared) plus a merge over the results in task-index
   order. The existential keeps per-experiment result types out of the
   registry. *)
type plan =
  | Plan : {
      tasks : (unit -> 'a) list;
      merge : 'a list -> Report.t list;
    }
      -> plan

let run_plan ?(jobs = 1) (Plan { tasks; merge }) =
  merge (Bp_parallel.Pool.run ~jobs tasks)
