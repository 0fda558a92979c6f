open Bp_sim

type unit_t = {
  participant : int;
  pbft_cfg : Bp_pbft.Config.t;
  nodes : Unit_node.t array;
  api : Api.t;
  geo : Geo.t;
  daemons : (int * Comm_daemon.t) list; (* dest -> daemon *)
  reserves : (int * Reserve.t list) list; (* dest -> reserves *)
}

type t = {
  n_participants : int;
  units : unit_t array;
  shard_map : Shard.map;
  shard_router : Shard.t;
}

let n_participants t = t.n_participants
let shard_map t = t.shard_map
let shard_router t = t.shard_router
let api t p = t.units.(p).api
let node t p i = t.units.(p).nodes.(i)
let nodes_of t p = t.units.(p).nodes
let geo t p = t.units.(p).geo
let unit_addrs t p = t.units.(p).pbft_cfg.Bp_pbft.Config.nodes

let daemon t ~src ~dest = List.assoc dest t.units.(src).daemons
let reserves t ~src ~dest = List.assoc dest t.units.(src).reserves

let addrs_for ~fi p = Array.init ((3 * fi) + 1) (fun i -> Addr.make ~dc:p ~idx:i)

let create ~network ~n_participants ?(fi = 1) ?(fg = 0) ?(scheme = `Hmac)
    ?batch_max ?batch_min_fill ?batch_hold ?max_in_flight ?shard_map
    ?(cache = true) ~app () =
  let shard_map =
    match shard_map with Some m -> m | None -> Shard.make ~shards:1 ()
  in
  if Shard.shards shard_map > n_participants then
    invalid_arg "Deployment.create: more shards than participants";
  let engine = Network.engine network in
  let topology = Network.topology network in
  if n_participants > Topology.num_dcs topology then
    invalid_arg "Deployment.create: more participants than datacenters";
  if fg > n_participants - 1 then
    invalid_arg "Deployment.create: fg needs fg other participants";
  let keystore = Bp_crypto.Signer.create ~scheme (Bp_util.Rng.split (Engine.rng engine)) in
  (* One verification cache per principal (node or API endpoint); with
     [cache] off each one keeps nothing, so every check recomputes. *)
  let new_cache () =
    if cache then Bp_crypto.Verify_cache.create keystore
    else Bp_crypto.Verify_cache.create ~capacity:0 ~digest_budget:0 keystore
  in
  let all_addrs = Array.init n_participants (addrs_for ~fi) in
  (* Build units: nodes + geo coordinators first, then daemons/reserves
     which need every unit's addresses. *)
  let units =
    Array.init n_participants (fun p ->
        let pbft_cfg =
          Bp_pbft.Config.make ~nodes:all_addrs.(p) ~keystore
            ~tag:(Proto.unit_tag p) ?batch_max ?batch_min_fill
            ?batch_hold ?max_in_flight ()
        in
        let apps =
          Array.init ((3 * fi) + 1) (fun _ ->
              Shard.instance app ~participant:p ~n_participants)
        in
        let nodes =
          Array.mapi
            (fun i (app, _) ->
              Unit_node.create ~network ~pbft_cfg ~participant:p ~n_participants
                ~node_idx:i ~fg ~vcache:(new_cache ()) ~app ())
            apps
        in
        (* Every node serves mirror duties (fg > 0 traffic). *)
        Array.iter (fun n -> ignore (Geo.Agent.install n)) nodes;
        let mirror_set = Topology.neighbors_by_rtt topology p in
        let geo =
          Geo.create ~node:nodes.(0) ~fg ~mirror_set
            ~all_unit_nodes:(fun q -> all_addrs.(q))
            ()
        in
        let api =
          Api.create ~network ~pbft_cfg ~participant:p ~n_participants
            ~lead_node:nodes.(0) ~geo ~vcache:(new_cache ())
            ~xs_staged:(snd apps.(0))
        in
        (p, pbft_cfg, nodes, geo, api))
  in
  let units =
    Array.map
      (fun (p, pbft_cfg, nodes, geo, api) ->
        let others =
          List.filter (fun q -> q <> p) (List.init n_participants Fun.id)
        in
        let geo_proofs =
          if fg > 0 then Some (fun ~pos ~on_ready -> Geo.proofs_for geo ~pos ~on_ready)
          else None
        in
        let daemons =
          List.map
            (fun dest ->
              ( dest,
                Comm_daemon.create ~node:nodes.(0) ~dest
                  ~dest_nodes:all_addrs.(dest) ?geo_proofs () ))
            others
        in
        let reserves =
          List.map
            (fun dest ->
              (* f+1 reserves on nodes 1..f+1 (distinct from the daemon's
                 host, node 0). *)
              let hosts = List.init (fi + 1) (fun k -> nodes.(1 + k)) in
              ( dest,
                List.map
                  (fun host ->
                    Reserve.create ~node:host ~dest ~dest_nodes:all_addrs.(dest)
                      ?geo_proofs ())
                  hosts ))
            others
        in
        { participant = p; pbft_cfg; nodes; api; geo; daemons; reserves })
      units
  in
  (* The shard router lives over the units: shard s is participant s's
     unit. With one shard (the default) it installs nothing and the
     deployment behaves byte-identically to the unsharded seed. *)
  let shard_router =
    Shard.router ~map:shard_map ~engine ~api:(fun p -> units.(p).api)
  in
  { n_participants; units; shard_map; shard_router }

let app_digests_agree t p =
  let nodes = t.units.(p).nodes in
  let d0 = Unit_node.app_digest nodes.(0) in
  Array.for_all (fun n -> String.equal (Unit_node.app_digest n) d0) nodes

let logs_agree t p =
  let nodes = t.units.(p).nodes in
  let logs = Array.map Unit_node.log nodes in
  let min_len =
    Array.fold_left
      (fun acc l -> Int.min acc (Bp_storage.Log_store.length l))
      max_int logs
  in
  if min_len = 0 then true
  else begin
    let d0 = Bp_storage.Log_store.digest_at logs.(0) min_len in
    Array.for_all
      (fun l -> String.equal (Bp_storage.Log_store.digest_at l min_len) d0)
      logs
  end
