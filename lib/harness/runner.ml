open Bp_sim

type world = {
  engine : Engine.t;
  net : Network.t;
  dep : Blockplane.Deployment.t;
}

(* Knob defaults fill only the gaps a world leaves: every explicit
   per-world argument wins over the record. Two knobs are clamped to the
   world they land in, because one run-wide value must stay valid across
   worlds of every size: the shard count to the participant count (a
   run-wide --shards 16 must not break a two-participant comm study) and
   the min-fill to the world's batch_max (a run-wide --batch-min-fill 16
   must not break the batch_max = 1 pipeline ablation). Explicit values
   are never clamped: more shards than participants, or a min-fill above
   batch_max, is a configuration error and raises in Deployment.create /
   Config.make. The min-fill/hold pair rule is judged by Config.make on
   the COMPOSED pair, so an explicit min-fill and a knob hold compose. *)
let fresh_world ?(knobs = Knobs.default) ?(fi = 1) ?(fg = 0) ?(seed = 4242L)
    ?(n_participants = 4) ?topology ?scheme ?batch_max ?batch_min_fill
    ?batch_hold ?max_in_flight ?verify_cost ?verify_jobs ?extra_verify_units
    ?cluster_send ?shards ?shard_map
    ?(app = fun () -> Blockplane.App.make (module Blockplane.App.Null)) () =
  let engine = Engine.create ~seed () in
  (* More participants than the paper's four regions: tile the Table I
     topology (metro twins per region) so every unit still gets its own
     datacenter. Deployments within the first four sites are unchanged. *)
  let topology =
    match topology with
    | Some topo -> topo
    | None ->
        if n_participants <= Topology.num_dcs Topology.aws_paper then
          Topology.aws_paper
        else Topology.tiled Topology.aws_paper ~sites:n_participants
  in
  let net = Network.create engine topology () in
  let batch_min_fill =
    match batch_min_fill with
    | Some _ -> batch_min_fill
    | None ->
        let cap =
          Option.value batch_max ~default:Bp_pbft.Config.default_batch_max
        in
        Option.map (Stdlib.min cap) knobs.Knobs.batch_min_fill
  in
  let batch_hold =
    match batch_hold with Some _ -> batch_hold | None -> knobs.batch_hold
  in
  let shard_map =
    match shard_map with
    | Some m -> m
    | None ->
        let shards =
          match shards with
          | Some s -> s
          | None -> Stdlib.min knobs.shards n_participants
        in
        Blockplane.Shard.make ~shards ()
  in
  let dep =
    Blockplane.Deployment.create ~network:net ~n_participants ~fi ~fg ?scheme
      ?batch_max ?batch_min_fill ?batch_hold
      ~max_in_flight:(Option.value max_in_flight ~default:knobs.pipeline)
      ?verify_cost
      ~verify_jobs:(Option.value verify_jobs ~default:knobs.verify_jobs)
      ?extra_verify_units
      ~cluster_send:(Option.value cluster_send ~default:knobs.cluster_send)
      ~shard_map ~cache:knobs.cache ~app ()
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
  Array.iteri
    (fun i addr ->
      ignore
        (Bp_pbft.Replica.create (Bp_net.Transport.create net addr) cfg ~id:i
           ~execute:(fun ~seq:_ _ -> "ok")
           ()))
    addrs;
  let client =
    Bp_pbft.Client.create
      (Bp_net.Transport.create net (Addr.make ~dc:client_dc ~idx:100))
      cfg
  in
  (engine, net, client)

let payload ~size i =
  if size <= 0 then ""
  else begin
    let stamp = Printf.sprintf "batch-%d;" i in
    let b = Bytes.make size 'x' in
    Bytes.blit_string stamp 0 b 0 (Stdlib.min (String.length stamp) size);
    Bytes.unsafe_to_string b
  end

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

let sequential engine ~n ~warmup ~run_one =
  let stats = Bp_util.Stats.create () in
  let total = warmup + n in
  let finished = ref false in
  let rec go i =
    if i >= total then finished := true
    else
      run_one i ~on_done:(fun latency_ms ->
          if i >= warmup then Bp_util.Stats.add stats latency_ms;
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
      run_one i ~on_done:(fun latency_ms ->
          Bp_util.Stats.add stats latency_ms;
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

(* An experiment decomposed for the domain pool: independent closed
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

let run_plan ?pool (Plan { tasks; merge }) =
  let results =
    match pool with
    | None -> List.map (fun task -> task ()) tasks
    | Some pool -> Bp_parallel.Pool.run pool tasks
  in
  merge results
