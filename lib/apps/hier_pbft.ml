open Bp_sim
open Bp_codec

type wmsg =
  | Propose of { leader : int; inst : int; value : string }
  | Accept of { leader : int; inst : int }

let encode_wmsg m =
  Wire.encode (fun e ->
      match m with
      | Propose { leader; inst; value } ->
          Wire.u8 e 0;
          Wire.varint e leader;
          Wire.varint e inst;
          Wire.string e value
      | Accept { leader; inst } ->
          Wire.u8 e 1;
          Wire.varint e leader;
          Wire.varint e inst)

let decode_wmsg s =
  Wire.decode s (fun d ->
      match Wire.read_u8 d with
      | 0 ->
          let leader = Wire.read_varint d in
          let inst = Wire.read_varint d in
          Propose { leader; inst; value = Wire.read_string d }
      | 1 ->
          let leader = Wire.read_varint d in
          let inst = Wire.read_varint d in
          Accept { leader; inst }
      | n -> raise (Wire.Malformed (Printf.sprintf "hier msg %d" n)))

type round = {
  inst : int;
  mutable acks : int;
  mutable rdone : bool;
  on_committed : unit -> unit;
}

type agent = {
  participant : int;
  transport : Bp_net.Transport.t; (* dedicated agent endpoint *)
  client : Bp_pbft.Client.t; (* into the local PBFT cluster *)
  mutable next_inst : int;
  mutable rounds : round list;
  mutable decided : int;
}

type t = {
  n : int;
  mutable agents : agent array;
}

let wide_tag = "hier.wide"

let majority t = (t.n / 2) + 1

let agent_addr p = Addr.make ~dc:p ~idx:80

let send_wide t ~from ~dest msg =
  Bp_net.Transport.send t.agents.(from).transport ~dst:(agent_addr dest)
    ~tag:wide_tag (encode_wmsg msg)

let on_wide t agent payload =
  match decode_wmsg payload with
  | Error _ -> ()
  | Ok (Propose { leader; inst; value }) ->
      (* Locally commit the accept through PBFT, then answer. *)
      Bp_pbft.Client.submit agent.client
        (Printf.sprintf "accept:%d:%d:%s" leader inst value)
        ~on_result:(fun _ -> send_wide t ~from:agent.participant ~dest:leader (Accept { leader; inst }))
  | Ok (Accept { leader; inst }) ->
      if leader = agent.participant then
        match List.find_opt (fun r -> r.inst = inst) agent.rounds with
        | Some r when not r.rdone ->
            r.acks <- r.acks + 1;
            if r.acks >= majority t then begin
              r.rdone <- true;
              (* Commit the decision locally before reporting. *)
              Bp_pbft.Client.submit agent.client
                (Printf.sprintf "decided:%d" inst)
                ~on_result:(fun _ ->
                  agent.decided <- agent.decided + 1;
                  r.on_committed ())
            end
        | _ -> ()

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
  let t = { n = n_participants; agents = [||] } in
  let agents =
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
        let agent =
          { participant = p; transport; client; next_inst = 0; rounds = []; decided = 0 }
        in
        Bp_net.Transport.set_handler transport ~tag:wide_tag (fun ~src:_ payload ->
            on_wide t agent payload);
        agent)
  in
  t.agents <- agents;
  t

let replicate t ~leader value ~on_committed =
  let agent = t.agents.(leader) in
  let inst = agent.next_inst in
  agent.next_inst <- inst + 1;
  let r = { inst; acks = 1; rdone = false; on_committed } in
  agent.rounds <- r :: agent.rounds;
  (* Locally commit the replication intent, then go wide. *)
  Bp_pbft.Client.submit agent.client
    (Printf.sprintf "replicate:%d:%s" inst value)
    ~on_result:(fun _ ->
      for p = 0 to t.n - 1 do
        if p <> leader then send_wide t ~from:leader ~dest:p (Propose { leader; inst; value })
      done)

let decided_count t p = t.agents.(p).decided
