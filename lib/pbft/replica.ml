open Bp_sim

let log = Logs.Src.create "bp.pbft" ~doc:"PBFT replica"

module Log = (val Logs.src_log log : Logs.LOG)
module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

(* A client request's identity: its client address and timestamp. *)
module Req_tbl = Hashtbl.Make (struct
  type t = Addr.t * int

  let equal ((a : Addr.t), ts) ((b : Addr.t), ts') = ts = ts' && Addr.equal a b
  let hash ((a : Addr.t), ts) = (Addr.hash a * 65599) + ts
end)

type slot = {
  seq : int;
  mutable sview : int; (* view in which the pre-prepare was accepted *)
  mutable digest : string option;
  mutable batch : Msg.request list;
  (* replica id, (view, digest) voted for, prepare signature *)
  mutable prepares : (int * (int * string) * string) list;
  mutable commits : (int * (int * string)) list; (* replica id, (view, digest) *)
  mutable sent_prepare : bool;
  mutable sent_commit : bool;
  mutable committed : bool;
  mutable executed : bool;
  mutable in_pipeline : bool;
      (* counted in [t.pipeline]: has a digest, not yet committed *)
  mutable verify_ready : Time.t;
      (* modeled verification cost: simulated instant at which this
         slot's signature checks finish on the replica's verify
         resource; [Time.zero] (always, when the model is off) means
         "already done" *)
  mutable prefetch : (unit -> unit) option;
      (* await closure of a verification prefetch submitted when the
         slot entered the pipeline as a non-head slot; invoked (once)
         before the slot is judged in check_prepared *)
}

type status = Normal | View_changing of int

exception Invariant_violation of string

let invariant_violation fmt =
  Printf.ksprintf (fun s -> raise (Invariant_violation s)) fmt

type t = {
  cfg : Config.t;
  id : int;
  transport : Bp_net.Transport.t;
  engine : Engine.t;
  cache : Bp_crypto.Verify_cache.t; (* per-node keystore view and memo *)
  execute : seq:int -> Msg.request -> string;
  mutable on_executed : seq:int -> Msg.request list -> unit;
  mutable verifier : Msg.request -> bool;
  mutable preverify : Msg.request list -> (unit -> unit) option;
      (* verification prefetch hook (see set_preverifier): submit
         whatever crypto the verification routines will need for this
         batch, return the await closure — or None if nothing to do *)
  mutable view : int;
  mutable status : status;
  mutable next_seq : int; (* primary: next sequence to assign *)
  mutable slots : slot Int_map.t;
  mutable low_watermark : int;
  mutable last_exec : int;
  mutable chain : string; (* hash chain over executed batches *)
  (* primary batching *)
  queue : Msg.request Queue.t;
  queued_keys : unit Req_tbl.t;
      (* dedup of queued requests, keyed [request_key r].
         O(1) membership/removal: under open-loop saturation the queue
         holds tens of thousands of requests, and the list this replaced
         made every enqueue/dequeue a linear scan. *)
  (* adaptive batch-cut policy (Config.batch_min_fill / batch_hold) *)
  mutable hold_timer : Engine.timer option;
      (* armed when a cut is deferred below the fill threshold *)
  mutable cut_forced : bool;
      (* the hold timer expired: the next cut ignores the fill threshold *)
  (* batch-formation telemetry for the saturation harness *)
  mutable batches_cut : int;
  mutable ops_proposed : int; (* total requests across all cut batches *)
  mutable window_stalls : int;
      (* cut attempts blocked by the watermark window (pipeline free,
         requests waiting, next_seq beyond the high watermark) *)
  mutable hold_deferrals : int; (* cuts deferred below batch_min_fill *)
  (* Windowed pipeline: number of slots currently in the
     pre-prepare/prepare/commit phases (digest assigned, not yet
     committed). The primary proposes while this stays below
     [Config.max_in_flight]; execution remains strictly in sequence
     order regardless of commit order. *)
  mutable pipeline : int;
  (* occupancy telemetry: pipeline depth sampled whenever a slot enters *)
  mutable occ_sum : int;
  mutable occ_samples : int;
  (* client bookkeeping *)
  last_reply : (int * string) Addr.Tbl.t; (* client -> ts, reply envelope *)
  reply_tag : string; (* Config.reply_tag, built once *)
  (* request timers: request key -> timer *)
  timers : Engine.timer Req_tbl.t;
  (* checkpoints: seq -> replica -> digest *)
  mutable checkpoints : (int * string) list Int_map.t;
  mutable own_checkpoints : string Int_map.t; (* seq -> digest, ours *)
  (* view change *)
  mutable view_changes : (int * string) list Int_map.t; (* target view -> (replica, envelope) *)
  mutable vc_timer : Engine.timer option;
  (* state transfer *)
  archive : (int, string * Msg.request list) Hashtbl.t; (* executed batches *)
  (* seq -> per-digest vote tallies: (digest, voters, batch) *)
  fetch_votes : (int, (string * Int_set.t * Msg.request list) list) Hashtbl.t;
  mutable fetching : bool;
  mutable stopped : bool;
  mutable suppress_commits : bool;
  mutable verify_busy : Time.t;
      (* modeled verification resource: simulated instant at which the
         replica's verification cores drain the work already booked *)
}

let view t = t.view
let is_primary t = Config.primary_of_view t.cfg t.view = t.id
let is_normal t = match t.status with Normal -> true | View_changing _ -> false
let last_executed t = t.last_exec
let low_watermark t = t.low_watermark
let exec_chain t = t.chain
let set_verifier t v = t.verifier <- v
let set_preverifier t f = t.preverify <- f
let set_on_executed t f = t.on_executed <- f
let suppress_commit_votes t b = t.suppress_commits <- b

let pipeline_occupancy t =
  if t.occ_samples = 0 then 0.0
  else float_of_int t.occ_sum /. float_of_int t.occ_samples

let open_slot_count t = Int_map.cardinal t.slots
let archive_size t = Hashtbl.length t.archive
let queue_depth t = Queue.length t.queue

type batch_stats = {
  batches_cut : int;
  ops_proposed : int;
  window_stalls : int;
  hold_deferrals : int;
}

let batch_stats (t : t) =
  {
    batches_cut = t.batches_cut;
    ops_proposed = t.ops_proposed;
    window_stalls = t.window_stalls;
    hold_deferrals = t.hold_deferrals;
  }

(* Modeled verification cost. The simulator charges zero simulated time
   for crypto (the only time model is the NIC and the links), which is
   right for the golden experiments but hides the verify bottleneck the
   pipeline ablations study. When [Config.verify_cost] is positive, a
   slot entering the pipeline books its verification work — batch size
   plus 2f proof signatures, divided across [Config.verify_jobs]
   simulated cores — on the replica's single verification resource, and
   the slot's commit vote waits for the booked work to drain (see
   check_prepared). With the default zero cost nothing is booked and
   the seed timing is bit-identical. *)
let charge_verification t s =
  let cost = t.cfg.Config.verify_cost in
  if Time.(cost > Time.zero) then begin
    let units = List.length s.batch + (2 * t.cfg.Config.f) in
    let jobs = t.cfg.Config.verify_jobs in
    let rounds = (units + jobs - 1) / jobs in
    let service = Time.scale cost (float_of_int rounds) in
    let start = Time.max (Engine.now t.engine) t.verify_busy in
    let ready = Time.add start service in
    t.verify_busy <- ready;
    s.verify_ready <- ready
  end

(* A slot enters the pipeline when it gains a digest (the primary's own
   proposal, an accepted pre-prepare, or a new-view re-proposal) and
   leaves when it commits. The per-slot flag keeps the counter exact
   even when the same slot is touched through several of those paths. *)
let pipeline_enter t s =
  if not s.in_pipeline then begin
    s.in_pipeline <- true;
    t.pipeline <- t.pipeline + 1;
    t.occ_sum <- t.occ_sum + t.pipeline;
    t.occ_samples <- t.occ_samples + 1;
    charge_verification t s
  end

let pipeline_leave t s =
  if s.in_pipeline then begin
    s.in_pipeline <- false;
    t.pipeline <- t.pipeline - 1
  end

let self_addr t = t.cfg.Config.nodes.(t.id)

let request_key (r : Msg.request) = (r.Msg.client, r.Msg.ts)

let request_equal (a : Msg.request) (b : Msg.request) =
  Addr.equal a.Msg.client b.Msg.client
  && a.Msg.ts = b.Msg.ts && a.Msg.kind = b.Msg.kind
  && String.equal a.Msg.op b.Msg.op

(* Structural equality for new-view batch lists, monomorphized so a
   byzantine peer cannot exploit (and we cannot pay for) polymorphic
   compare on protocol payloads. *)
let batches_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (seq_a, dg_a, batch_a) (seq_b, dg_b, batch_b) ->
         seq_a = seq_b && String.equal dg_a dg_b
         && List.length batch_a = List.length batch_b
         && List.for_all2 request_equal batch_a batch_b)
       a b

let broadcast t body =
  (* Seal once, serialize the transport suffix once: the whole broadcast
     encodes the message exactly one time regardless of cluster size. *)
  let sealed = Msg.seal ~cache:t.cache t.cfg ~sender:(self_addr t) body in
  Bp_net.Transport.broadcast t.transport ~dsts:t.cfg.Config.nodes
    ~tag:t.cfg.Config.tag sealed

let send_reply t (r : Msg.request) result =
  let body =
    Msg.Reply
      { view = t.view; ts = r.Msg.ts; client = r.Msg.client; replica = t.id; result }
  in
  let sealed = Msg.seal ~cache:t.cache t.cfg ~sender:(self_addr t) body in
  Addr.Tbl.replace t.last_reply r.Msg.client (r.Msg.ts, sealed);
  Bp_net.Transport.send t.transport ~dst:r.Msg.client ~tag:t.reply_tag sealed

let slot_of t seq =
  match Int_map.find_opt seq t.slots with
  | Some s -> s
  | None ->
      let s =
        {
          seq;
          sview = t.view;
          digest = None;
          batch = [];
          prepares = [];
          commits = [];
          sent_prepare = false;
          sent_commit = false;
          committed = false;
          executed = false;
          in_pipeline = false;
          verify_ready = Time.zero;
          prefetch = None;
        }
      in
      t.slots <- Int_map.add seq s t.slots;
      s

let in_window t seq =
  seq > t.low_watermark && seq <= t.low_watermark + t.cfg.Config.watermark_window

(* The digest of a slot that the protocol has already established as
   proposed: reaching for it on an empty slot is a local-state corruption,
   not a byzantine input, so fail loudly with the slot's coordinates. *)
let slot_digest_exn t s =
  match s.digest with
  | Some d -> d
  | None ->
      invariant_violation "pbft replica %d: slot seq=%d view=%d has no digest"
        t.id s.seq s.sview

(* ---------- view change triggering ---------- *)

let cancel_request_timer t key =
  match Req_tbl.find_opt t.timers key with
  | Some timer ->
      Engine.cancel timer;
      Req_tbl.remove t.timers key
  | None -> ()

let matching_prepares s =
  match s.digest with
  | None -> []
  | Some d ->
      List.filter (fun (_, (v, dg), _) -> v = s.sview && String.equal dg d) s.prepares

let matching_commits s =
  match s.digest with
  | None -> []
  | Some d ->
      List.filter (fun (_, (v, dg)) -> v = s.sview && String.equal dg d) s.commits

let prepared_proofs t =
  Int_map.fold
    (fun seq s acc ->
      let matching = matching_prepares s in
      if
        seq > t.low_watermark
        && (not s.executed)
        && Option.is_some s.digest
        && List.length matching >= 2 * t.cfg.Config.f
      then
        {
          Msg.pview = s.sview;
          pseq = seq;
          pdigest = slot_digest_exn t s;
          pbatch = s.batch;
          prepare_sigs = List.map (fun (r, _, sg) -> (r, sg)) matching;
        }
        :: acc
      else acc)
    t.slots []

let rec move_to_view t target =
  if target > t.view then begin
    Log.debug (fun m -> m "pbft %d: view change -> %d" t.id target);
    t.status <- View_changing target;
    (* Clear per-request timers; the new view re-arms protocol progress.
       Cancelling only marks each timer, so the result does not depend
       on the table's iteration order. *)
    (Req_tbl.iter (fun _ timer -> Engine.cancel timer) t.timers
    [@bplint.allow "R2-hiter"]);
    Req_tbl.reset t.timers;
    let body =
      Msg.View_change
        {
          new_view = target;
          stable_seq = t.low_watermark;
          stable_digest =
            (match Int_map.find_opt t.low_watermark t.own_checkpoints with
            | Some d -> d
            | None -> "");
          prepared = prepared_proofs t;
          vc_replica = t.id;
        }
    in
    (* Record our own view-change message. *)
    let sealed = Msg.seal ~cache:t.cache t.cfg ~sender:(self_addr t) body in
    record_view_change t target t.id sealed;
    broadcast t body;
    (match t.vc_timer with Some timer -> Engine.cancel timer | None -> ());
    t.vc_timer <-
      Some
        (Engine.schedule t.engine ~after:(Time.scale t.cfg.Config.request_timeout 2.0)
           (fun () ->
             match t.status with
             | View_changing v when v = target -> move_to_view t (target + 1)
             | _ -> ()))
  end

and record_view_change t target replica envelope =
  let existing = Option.value ~default:[] (Int_map.find_opt target t.view_changes) in
  if not (List.mem_assoc replica existing) then begin
    t.view_changes <- Int_map.add target ((replica, envelope) :: existing) t.view_changes;
    maybe_new_view t target
  end

(* The new primary assembles and broadcasts New_view once it holds 2f+1
   view-change messages for the target view. *)
and maybe_new_view t target =
  if Config.primary_of_view t.cfg target = t.id && target > t.view then begin
    let vcs = Option.value ~default:[] (Int_map.find_opt target t.view_changes) in
    if List.length vcs >= Config.quorum t.cfg then begin
      match compute_new_view_batches ~cache:t.cache t.cfg (List.map snd vcs) with
      | None -> ()
      | Some batches ->
          let body =
            Msg.New_view
              {
                view = target;
                view_change_envelopes = List.map snd vcs;
                batches;
                replica = t.id;
              }
          in
          broadcast t body;
          enter_new_view t target batches
    end
  end

and verified_view_changes ~cache cfg target envelopes =
  (* Returns (replica, View_change fields) for envelopes that verify and
     target the right view, at most one per replica. *)
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun env ->
      match Msg.verify_envelope ~cache cfg env with
      | Ok (Msg.View_change vc) when vc.Msg.new_view = target ->
          if Hashtbl.mem seen vc.Msg.vc_replica then None
          else begin
            Hashtbl.add seen vc.Msg.vc_replica ();
            Some vc
          end
      | _ -> None)
    envelopes

and proof_valid ~cache cfg (p : Msg.prepared_proof) =
  String.equal p.Msg.pdigest (Msg.batch_digest ~cache p.Msg.pbatch)
  && begin
       (* 2f distinct, valid prepare signatures over the reconstructed
          prepare body. Prepare is a small-bodied message, so its signed
          bytes are its exact encoding. *)
       let distinct = Hashtbl.create 8 in
       let valid =
         List.filter
           (fun (replica, signature) ->
             if Hashtbl.mem distinct replica then false
             else if replica < 0 || replica >= Config.n cfg then false
             else begin
               let body =
                 Msg.encode_body
                   (Msg.Prepare
                      {
                        view = p.Msg.pview;
                        seq = p.Msg.pseq;
                        digest = p.Msg.pdigest;
                        replica;
                      })
               in
               let ok =
                 Bp_crypto.Verify_cache.verify cache
                   ~signer:(Config.identity cfg cfg.Config.nodes.(replica))
                   ~msg:body ~signature
               in
               if ok then Hashtbl.add distinct replica ();
               ok
             end)
           p.Msg.prepare_sigs
       in
       List.length valid >= 2 * cfg.Config.f
     end

and compute_new_view_batches ~cache cfg envelopes =
  (* Deterministic function of the view-change set: both the new primary
     and the backups run it and must agree. *)
  let target =
    List.fold_left
      (fun acc env ->
        match Msg.verify_envelope ~cache cfg env with
        | Ok (Msg.View_change vc) -> Stdlib.max acc vc.Msg.new_view
        | _ -> acc)
      (-1) envelopes
  in
  if target < 0 then None
  else begin
    let vcs = verified_view_changes ~cache cfg target envelopes in
    if List.length vcs < Config.quorum cfg then None
    else begin
      (* min_s: the highest stable sequence supported by at least f+1
         view-change messages — at least one of those reporters is honest,
         so a lone byzantine node cannot truncate prepared batches by
         claiming an inflated stable checkpoint. *)
      let stables =
        List.sort (fun a b -> Int.compare b a) (List.map (fun vc -> vc.Msg.stable_seq) vcs)
      in
      let min_s =
        match List.nth_opt stables (Stdlib.min (List.length stables - 1) cfg.Config.f) with
        | Some s -> s
        | None -> 0 (* unreachable: vcs passed the quorum check above *)
      in
      let best = ref Int_map.empty in
      List.iter
        (fun vc ->
          List.iter
            (fun p ->
              if p.Msg.pseq > min_s && proof_valid ~cache cfg p then
                match Int_map.find_opt p.Msg.pseq !best with
                | Some existing when existing.Msg.pview >= p.Msg.pview -> ()
                | _ -> best := Int_map.add p.Msg.pseq p !best)
            vc.Msg.prepared)
        vcs;
      let max_s =
        match Int_map.max_binding_opt !best with
        | Some (seq, _) -> Stdlib.max min_s seq
        | None -> min_s
      in
      let batches =
        List.init (max_s - min_s) (fun i ->
            let seq = min_s + 1 + i in
            match Int_map.find_opt seq !best with
            | Some p -> (seq, p.Msg.pdigest, p.Msg.pbatch)
            | None -> (seq, Msg.batch_digest ~cache [], []))
      in
      Some batches
    end
  end

and enter_new_view t target batches =
  (match t.vc_timer with Some timer -> Engine.cancel timer | None -> ());
  t.vc_timer <- None;
  t.view <- target;
  t.status <- Normal;
  (* Recompute pipeline membership from scratch: only the slots
     re-proposed below (and not already committed) are in flight in the
     new view. Dead slots from the old view must not pin the counter. *)
  Int_map.iter (fun _ s -> s.in_pipeline <- false) t.slots;
  t.pipeline <- 0;
  let max_seq = List.fold_left (fun acc (s, _, _) -> Stdlib.max acc s) 0 batches in
  t.next_seq <- Stdlib.max t.next_seq (Stdlib.max max_seq t.last_exec + 1);
  List.iter
    (fun (seq, digest, batch) ->
      if seq > t.last_exec && in_window t seq then begin
        let s = slot_of t seq in
        s.sview <- target;
        s.digest <- Some digest;
        s.batch <- batch;
        s.prepares <- [];
        s.commits <- [];
        s.sent_prepare <- false;
        s.sent_commit <- false;
        if not s.committed then pipeline_enter t s;
        (* Everyone, including the new primary, prepares the re-proposed
           batches in the new view. *)
        send_prepare t s
      end)
    batches;
  Log.debug (fun m -> m "pbft %d: entered view %d" t.id target);
  (* The new primary may hold queued requests (leftovers from an earlier
     primaryship); fill whatever pipeline capacity the re-proposals left. *)
  if is_primary t then try_form_batch t

(* ---------- normal case ---------- *)

and send_prepare t s =
  if not s.sent_prepare then begin
    s.sent_prepare <- true;
    match s.digest with
    | Some digest ->
        broadcast t (Msg.Prepare { view = s.sview; seq = s.seq; digest; replica = t.id })
    | None -> ()
  end

and check_prepared t s =
  match s.digest with
  | None -> ()
  | Some digest ->
      if
        (not s.sent_commit)
        && List.length (matching_prepares s) >= 2 * t.cfg.Config.f
      then begin
        (* Blockplane hook: run the verification routines before voting to
           commit (§IV-B). With a pipeline, a failing verdict is only
           *provisional* while earlier slots are in flight — the state it
           was judged against may still change — so it withholds the vote
           and is re-judged as execution advances (see try_execute). Once
           the slot is next in execution order the verdict is final and
           identical on every honest replica; a finally-invalid batch must
           still commit (a peer that judged it against an earlier state
           may already have voted, so it may be committed elsewhere) —
           execution then downgrades its requests to deterministic no-op
           rejections. Without that, a prepared-but-invalid slot wedges
           the window behind endless view changes. At depth 1 the seed
           semantics are unchanged: a failing verdict always withholds. *)
        (* Await the verification prefetch first, if one was submitted
           when the slot entered the pipeline: the signature checks it
           submitted land in the per-node cache here, so the
           verification routines below mostly hit. *)
        (match s.prefetch with
        | Some await ->
            s.prefetch <- None;
            await ()
        | None -> ());
        let all_valid =
          List.for_all t.verifier s.batch
        in
        let verdict_final =
          t.cfg.Config.max_in_flight > 1 && s.seq = t.last_exec + 1
        in
        if all_valid || verdict_final then begin
          s.sent_commit <- true;
          if not t.suppress_commits then begin
            let now = Engine.now t.engine in
            if Time.(s.verify_ready <= now) then
              broadcast t
                (Msg.Commit { view = s.sview; seq = s.seq; digest; replica = t.id })
            else begin
              (* Modeled verification (Config.verify_cost) still in
                 flight for this slot: the vote goes out when the
                 simulated verify resource drains it. The guards re-check
                 at fire time that the slot still stands for the same
                 (view, digest) — a view change in between resets
                 sent_commit and re-proposes under a new sview. *)
              let view_c = s.sview in
              ignore
                (Engine.schedule t.engine ~after:(Time.diff s.verify_ready now)
                   (fun () ->
                     if
                       (not t.stopped) && is_normal t && s.sent_commit
                       && s.sview = view_c
                       && not t.suppress_commits
                       &&
                       match s.digest with
                       | Some d -> String.equal d digest
                       | None -> false
                     then
                       broadcast t
                         (Msg.Commit
                            { view = view_c; seq = s.seq; digest; replica = t.id })))
            end
          end
        end
      end

and check_committed t s =
  if
    (not s.committed)
    && s.sent_commit
    && List.length (matching_commits s) >= Config.quorum t.cfg
  then begin
    s.committed <- true;
    pipeline_leave t s;
    try_execute t;
    (* A pipeline slot just freed: the primary cuts the next batch now
       rather than waiting for [batch_max] requests (adaptive batching). *)
    if is_primary t && is_normal t then try_form_batch t
  end

and try_execute t =
  let executed_any = ref false in
  let deferred_checkpoints = ref [] in
  let rec go () =
    match Int_map.find_opt (t.last_exec + 1) t.slots with
    | Some s when s.committed && not s.executed ->
        executed_any := true;
        s.executed <- true;
        t.last_exec <- s.seq;
        (* Retain the executed batch for state transfer, bounded. *)
        Hashtbl.replace t.archive s.seq (Option.value ~default:"" s.digest, s.batch);
        let horizon = s.seq - (4 * t.cfg.Config.watermark_window) in
        if horizon > 0 then Hashtbl.remove t.archive horizon;
        List.iter
          (fun r ->
            (* Pipelined mode re-verifies at execution: the commit-time
               verdict may have been cast against a stale state (or
               force-granted once final, see check_prepared). Every honest
               replica evaluates this at the identical sequential state,
               so the downgrade to a no-op rejection is unanimous. *)
            let result =
              if t.cfg.Config.max_in_flight > 1 && not (t.verifier r) then
                "__rejected"
              else t.execute ~seq:s.seq r
            in
            (* The archive keeps this request for state transfer; its
               decoded op must not outlive the execution. *)
            r.Msg.decoded <- Msg.Not_decoded;
            cancel_request_timer t (request_key r);
            send_reply t r result)
          s.batch;
        t.chain <-
          Bp_crypto.Sha256.digest_list
            [ t.chain; Option.value ~default:"" s.digest ];
        t.on_executed ~seq:s.seq s.batch;
        if s.seq mod t.cfg.Config.checkpoint_interval = 0 then begin
          t.own_checkpoints <- Int_map.add s.seq t.chain t.own_checkpoints;
          (* Checkpoint production overlaps pipeline progress: the
             digest is recorded here (it is this point of the chain), but
             the broadcast is deferred until the whole execution drain
             finishes, so the replies and commit votes of the slots
             behind this one are not NIC-queued behind checkpoint
             traffic. *)
          deferred_checkpoints := (s.seq, t.chain) :: !deferred_checkpoints
        end;
        go ()
    | _ -> ()
  in
  go ();
  (* Verification routines read application state, so a pipelined slot
     whose batch was rejected while an earlier slot was still in flight
     must be re-judged now that execution advanced — otherwise the
     withheld commit vote is never reconsidered and the slot wedges
     until a view change. With a single slot in flight (depth 1) no
     other slot can be waiting, so this never fires there. *)
  if !executed_any then
    Int_map.iter
      (fun _ s ->
        if (not s.executed) && not s.sent_commit then begin
          check_prepared t s;
          check_committed t s
        end)
      t.slots;
  (* Flush deferred checkpoint broadcasts (see above): protocol-critical
     traffic — replies, commit votes, the re-judged slots' votes — has
     already been queued ahead of them. *)
  List.iter
    (fun (seq, digest) ->
      broadcast t (Msg.Checkpoint { seq; state_digest = digest; replica = t.id }))
    (List.rev !deferred_checkpoints)

and arm_hold_timer t =
  (* One timer at a time; re-armed only after it fires. The fire-time
     guards re-check primaryship — a view change in between deposes us
     and the new primary runs its own policy. *)
  match t.hold_timer with
  | Some _ -> ()
  | None ->
      t.hold_timer <-
        Some
          (Engine.schedule t.engine ~after:t.cfg.Config.batch_hold (fun () ->
               t.hold_timer <- None;
               if
                 (not t.stopped) && is_primary t && is_normal t
                 && not (Queue.is_empty t.queue)
               then begin
                 t.cut_forced <- true;
                 try_form_batch t
               end))

and try_form_batch t =
  (* Windowed pipelining: keep cutting batches while the pipeline has a
     free slot, requests are waiting, and the next sequence fits under
     the high watermark. Each iteration either consumes queued requests
     or opens a slot, so the loop terminates. At [max_in_flight = 1]
     this is exactly the classic stop-and-wait primary.

     Batch-cut policy: with the default [batch_min_fill = 1] any waiting
     request is cut immediately (the seed policy). A higher threshold
     holds the cut until enough requests pool — bounded by the
     [batch_hold] timer, whose expiry forces the next cut regardless of
     fill. This is the knob that stops a deep pipeline from shredding an
     open-loop workload into degenerate 1-op batches: every commit frees
     a slot, and without the threshold each free slot immediately
     consumes whatever trickle is queued. *)
  let deferred = ref false in
  while
    (not !deferred) && is_primary t && is_normal t
    && t.pipeline < t.cfg.Config.max_in_flight
    && (not (Queue.is_empty t.queue))
    && t.next_seq <= t.low_watermark + t.cfg.Config.watermark_window
  do
    if Queue.length t.queue < t.cfg.Config.batch_min_fill && not t.cut_forced
    then begin
      t.hold_deferrals <- t.hold_deferrals + 1;
      arm_hold_timer t;
      deferred := true
    end
    else begin
      t.cut_forced <- false;
      let batch = ref [] in
      let blen = ref 0 in
      (* Batch length tracked alongside the list: [List.length !batch] in
         the loop guard made each cut O(batch^2). *)
      while (not (Queue.is_empty t.queue)) && !blen < t.cfg.Config.batch_max do
        let r = Queue.pop t.queue in
        Req_tbl.remove t.queued_keys (request_key r);
        (* Pre-screen with the verification routine; invalid requests are
           dropped here (an honest primary never proposes them). *)
        if t.verifier r then begin
          batch := r :: !batch;
          incr blen
        end
      done;
      let batch = List.rev !batch in
      if not (List.is_empty batch) then begin
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        let digest = Msg.batch_digest ~cache:t.cache batch in
        let s = slot_of t seq in
        s.sview <- t.view;
        s.digest <- Some digest;
        s.batch <- batch;
        t.batches_cut <- t.batches_cut + 1;
        t.ops_proposed <- t.ops_proposed + !blen;
        pipeline_enter t s;
        broadcast t (Msg.Pre_prepare { view = t.view; seq; digest; batch })
        (* The primary's pre-prepare stands in for its prepare: backups
           count it via the digest; the primary collects 2f backup prepares
           like everyone else. *)
      end
    end
  done;
  (* Window-stall telemetry: a free pipeline slot and waiting requests,
     but the next sequence would overrun the high watermark — progress
     now depends on the next stable checkpoint. The saturation harness
     reads this to attribute throughput plateaus. *)
  if
    is_primary t && is_normal t
    && t.pipeline < t.cfg.Config.max_in_flight
    && (not (Queue.is_empty t.queue))
    && t.next_seq > t.low_watermark + t.cfg.Config.watermark_window
  then t.window_stalls <- t.window_stalls + 1

and arm_request_timer t (r : Msg.request) =
  let key = request_key r in
  if not (Req_tbl.mem t.timers key) then begin
    let timer =
      Engine.schedule t.engine ~after:t.cfg.Config.request_timeout (fun () ->
          Req_tbl.remove t.timers key;
          (* The request did not execute in time: suspect the primary. *)
          match t.status with
          | Normal -> move_to_view t (t.view + 1)
          | View_changing _ -> ())
    in
    Req_tbl.replace t.timers key timer
  end

and handle_request t ~envelope (r : Msg.request) =
  if Msg.request_valid ~cache:t.cache t.cfg r then begin
    match Addr.Tbl.find_opt t.last_reply r.Msg.client with
    | Some (ts, envelope) when ts >= r.Msg.ts ->
        (* Already executed: re-send the cached reply. *)
        if ts = r.Msg.ts then
          Bp_net.Transport.send t.transport ~dst:r.Msg.client ~tag:t.reply_tag
            envelope
    | _ when not (t.verifier r) ->
        (* Pre-screen: an op the verification routine rejects can never
           commit; answer immediately instead of letting request timers
           churn view changes. The client waits for f+1 of these, so up
           to f liars cannot fake a rejection. *)
        let body =
          Msg.Reply
            {
              view = t.view;
              ts = r.Msg.ts;
              client = r.Msg.client;
              replica = t.id;
              result = "__rejected";
            }
        in
        Bp_net.Transport.send t.transport ~dst:r.Msg.client ~tag:t.reply_tag
          (Msg.seal ~cache:t.cache t.cfg ~sender:(self_addr t) body)
    | _ ->
        if is_primary t && is_normal t then begin
          let qk = request_key r in
          if not (Req_tbl.mem t.queued_keys qk) then begin
            Queue.push r t.queue;
            Req_tbl.replace t.queued_keys qk ();
            arm_request_timer t r;
            try_form_batch t
          end
        end
        else begin
          (* Backup: forward the client's original envelope (we cannot
             re-sign for the client) and watch for progress. Never forward
             to ourselves (we may be the deposed primary of a view change
             in progress) — the client's retransmissions provide liveness. *)
          let primary = Config.primary_of_view t.cfg t.view in
          if primary <> t.id && is_normal t then
            Bp_net.Transport.send t.transport
              ~dst:t.cfg.Config.nodes.(primary)
              ~tag:t.cfg.Config.tag envelope;
          arm_request_timer t r
        end
  end

and handle_pre_prepare t ~view ~seq ~digest ~batch =
  if
    is_normal t && view = t.view && in_window t seq
    && Config.primary_of_view t.cfg view <> t.id
    && String.equal digest (Msg.batch_digest ~cache:t.cache batch)
    (* One Verify_batch batch for the whole batch's client signatures,
       not a per-request loop (verdict identical). *)
    && Msg.requests_valid ~cache:t.cache t.cfg batch
  then begin
    let s = slot_of t seq in
    match s.digest with
    | Some existing when s.sview = view ->
        if not (String.equal existing digest) then
          (* Equivocating primary: refuse, and push for a view change. *)
          move_to_view t (t.view + 1)
    | _ ->
        (* A committed-but-unexecuted slot (possible while earlier slots
           are still in flight, or after a fetch drain) already holds the
           digest a quorum agreed on; a late pre-prepare must not
           overwrite it or re-enter it into the pipeline. *)
        if (not s.executed) && not s.committed then begin
          s.sview <- view;
          s.digest <- Some digest;
          s.batch <- batch;
          pipeline_enter t s;
          (* Non-head slot: its verdict can wait (provisional/final
             machinery above), so submit the verification routines'
             crypto now and await it when the slot is judged in
             check_prepared. The head slot is judged synchronously. *)
          if s.seq > t.last_exec + 1 then s.prefetch <- t.preverify batch;
          List.iter (fun r -> cancel_request_timer t (request_key r)) batch;
          List.iter (fun r -> arm_request_timer t r) batch;
          send_prepare t s;
          check_prepared t s;
          check_committed t s
        end
  end

and handle_prepare t ~view ~seq ~digest ~replica ~signature =
  if in_window t seq && view >= 0 then begin
    let s = slot_of t seq in
    (* Buffer each replica's vote with the (view, digest) it voted for —
       votes for other digests are kept but never counted, so a byzantine
       flood cannot inflate the prepared count. *)
    if not (List.exists (fun (r, _, _) -> r = replica) s.prepares) then begin
      s.prepares <- (replica, (view, digest), signature) :: s.prepares;
      check_prepared t s;
      check_committed t s
    end
  end

and handle_commit t ~view ~seq ~digest ~replica =
  if in_window t seq then begin
    let s = slot_of t seq in
    if not (List.exists (fun (r, _) -> r = replica) s.commits) then begin
      s.commits <- (replica, (view, digest)) :: s.commits;
      check_committed t s
    end
  end

and handle_checkpoint t ~seq ~state_digest ~replica =
  if seq > t.low_watermark then begin
    let existing = Option.value ~default:[] (Int_map.find_opt seq t.checkpoints) in
    if not (List.mem_assoc replica existing) then begin
      let entries = (replica, state_digest) :: existing in
      t.checkpoints <- Int_map.add seq entries t.checkpoints;
      (* State-transfer trigger: f+1 distinct replicas checkpointing a
         sequence we have not executed means at least one honest replica
         is ahead of us — fetch the gap (e.g. after an amnesiac reboot). *)
      if seq > t.last_exec && List.length entries >= t.cfg.Config.f + 1 then
        start_fetch t;
      let matching =
        List.length (List.filter (fun (_, d) -> String.equal d state_digest) entries)
      in
      if matching >= Config.quorum t.cfg && Int_map.mem seq t.own_checkpoints then begin
        (* Stable checkpoint: advance watermarks and collect garbage.
           Only executed slots sit at or below a stable checkpoint, so
           the filter can never drop an in-pipeline slot. *)
        t.low_watermark <- seq;
        t.slots <- Int_map.filter (fun s _ -> s > seq) t.slots;
        t.checkpoints <- Int_map.filter (fun s _ -> s > seq) t.checkpoints;
        t.own_checkpoints <- Int_map.filter (fun s _ -> s >= seq) t.own_checkpoints;
        (* The high watermark moved: sequences that were window-blocked
           are proposable again. *)
        if is_primary t && is_normal t then try_form_batch t
      end
    end
  end

(* ---------- state transfer ---------- *)

and start_fetch t =
  if not t.fetching then begin
    t.fetching <- true;
    broadcast t (Msg.Fetch { from_seq = t.last_exec + 1; replica = t.id });
    (* Allow a re-trigger if this round stalls (lost replies, still
       behind). *)
    ignore
      (Engine.schedule t.engine ~after:(Time.scale t.cfg.Config.request_timeout 2.0)
         (fun () -> t.fetching <- false))
  end

and handle_fetch t ~from_seq ~replica =
  if replica <> t.id && replica >= 0 && replica < Config.n t.cfg then begin
    let batches = ref [] in
    let upto = Stdlib.min t.last_exec (from_seq + 31) in
    for seq = upto downto from_seq do
      match Hashtbl.find_opt t.archive seq with
      | Some (digest, batch) -> batches := (seq, digest, batch) :: !batches
      | None -> ()
    done;
    if not (List.is_empty !batches) then begin
      let body = Msg.Fetch_reply { batches = !batches; replica = t.id } in
      Bp_net.Transport.send t.transport ~dst:t.cfg.Config.nodes.(replica)
        ~tag:t.cfg.Config.tag
        (Msg.seal ~cache:t.cache t.cfg ~sender:(self_addr t) body)
    end
  end

and handle_fetch_reply t ~batches ~replica =
  List.iter
    (fun (seq, digest, batch) ->
      if
        seq > t.last_exec
        && String.equal digest (Msg.batch_digest ~cache:t.cache batch)
      then begin
        let entries = Option.value ~default:[] (Hashtbl.find_opt t.fetch_votes seq) in
        let entries =
          match List.partition (fun (d, _, _) -> String.equal d digest) entries with
          | (d, voters, stored) :: _, rest ->
              (d, Int_set.add replica voters, stored) :: rest
          | [], rest -> (digest, Int_set.singleton replica, batch) :: rest
        in
        Hashtbl.replace t.fetch_votes seq entries
      end)
    batches;
  (* Drain: accept the next sequence once f+1 distinct peers vouch for
     the same digest — at least one of them is honest and executed it.
     At most one digest can reach f+1 honest votes, so if byzantine peers
     stuff a second qualifying digest we still pick deterministically:
     the lexicographically smallest. *)
  let rec drain () =
    let next = t.last_exec + 1 in
    let qualifying =
      List.filter
        (fun (_, voters, _) -> Int_set.cardinal voters >= t.cfg.Config.f + 1)
        (Option.value ~default:[] (Hashtbl.find_opt t.fetch_votes next))
    in
    let candidate =
      match
        List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) qualifying
      with
      | (digest, _, batch) :: _ -> Some (digest, batch)
      | [] -> None
    in
    match candidate with
    | Some (digest, batch) ->
        let s = slot_of t next in
        if not s.executed then begin
          s.digest <- Some digest;
          s.batch <- batch;
          s.committed <- true;
          s.sent_commit <- true;
          (* The slot may have been mid-pipeline when we fell behind. *)
          pipeline_leave t s
        end;
        Hashtbl.remove t.fetch_votes next;
        try_execute t;
        if t.last_exec >= next then drain ()
    | None -> ()
  in
  let before = t.last_exec in
  drain ();
  (* A fetch round covers a bounded range; if checkpoint evidence says we
     are still behind, immediately ask for the next stretch. *)
  if t.last_exec > before then begin
    let still_behind =
      Int_map.exists
        (fun seq entries ->
          seq > t.last_exec && List.length entries >= t.cfg.Config.f + 1)
        t.checkpoints
    in
    if still_behind then begin
      t.fetching <- false;
      start_fetch t
    end
  end

(* ---------- dispatch ---------- *)

let extract_prepare_signature envelope =
  (* envelope = Wire{body, signature}; we need the signature to stash in
     prepared-certificates. *)
  match
    Bp_codec.Wire.decode envelope (fun d ->
        let _body = Bp_codec.Wire.read_string d in
        Bp_codec.Wire.read_string d)
  with
  | Ok s -> s
  | Error _ -> ""

let on_envelope t ~src:_ envelope =
  if not t.stopped then
    match Msg.verify_envelope ~cache:t.cache t.cfg envelope with
    | Error e -> Log.debug (fun m -> m "pbft %d: rejected envelope: %s" t.id e)
    | Ok body -> (
        match body with
        | Msg.Request r -> handle_request t ~envelope r
        | Msg.Pre_prepare { view; seq; digest; batch } ->
            handle_pre_prepare t ~view ~seq ~digest ~batch
        | Msg.Prepare { view; seq; digest; replica } ->
            handle_prepare t ~view ~seq ~digest ~replica
              ~signature:(extract_prepare_signature envelope)
        | Msg.Commit { view; seq; digest; replica } ->
            handle_commit t ~view ~seq ~digest ~replica
        | Msg.Reply _ -> () (* replicas ignore replies *)
        | Msg.Checkpoint { seq; state_digest; replica } ->
            handle_checkpoint t ~seq ~state_digest ~replica
        | Msg.View_change ({ new_view; vc_replica = replica; _ } as vc) ->
            if new_view > t.view then begin
              record_view_change t new_view replica envelope;
              (* Liveness rule: join a view change supported by f+1. *)
              let support =
                List.length
                  (Option.value ~default:[] (Int_map.find_opt new_view t.view_changes))
              in
              ignore vc;
              if support >= t.cfg.Config.f + 1 then begin
                match t.status with
                | View_changing v when v >= new_view -> ()
                | _ -> move_to_view t new_view
              end
            end
        | Msg.New_view { view; view_change_envelopes; batches; replica } ->
            if
              view > t.view
              && Config.primary_of_view t.cfg view = replica
              && replica <> t.id
            then begin
              match compute_new_view_batches ~cache:t.cache t.cfg view_change_envelopes with
              | Some expected when batches_equal expected batches ->
                  enter_new_view t view batches
              | _ ->
                  Log.debug (fun m -> m "pbft %d: invalid new-view from %d" t.id replica)
            end
        | Msg.Fetch { from_seq; replica } -> handle_fetch t ~from_seq ~replica
        | Msg.Fetch_reply { batches; replica } ->
            handle_fetch_reply t ~batches ~replica)

let create ~cache transport cfg ~id ~execute () =
  let engine = Network.engine (Bp_net.Transport.network transport) in
  let t =
    {
      cfg;
      id;
      transport;
      engine;
      cache;
      execute;
      on_executed = (fun ~seq:_ _ -> ());
      verifier = (fun _ -> true);
      preverify = (fun _ -> None);
      view = 0;
      status = Normal;
      next_seq = 1;
      slots = Int_map.empty;
      low_watermark = 0;
      last_exec = 0;
      chain = Bp_crypto.Sha256.digest "pbft-genesis";
      queue = Queue.create ();
      queued_keys = Req_tbl.create 64;
      hold_timer = None;
      cut_forced = false;
      batches_cut = 0;
      ops_proposed = 0;
      window_stalls = 0;
      hold_deferrals = 0;
      pipeline = 0;
      occ_sum = 0;
      occ_samples = 0;
      last_reply = Addr.Tbl.create 32;
      reply_tag = Config.reply_tag cfg;
      timers = Req_tbl.create 32;
      checkpoints = Int_map.empty;
      own_checkpoints = Int_map.empty;
      view_changes = Int_map.empty;
      vc_timer = None;
      archive = Hashtbl.create 128;
      fetch_votes = Hashtbl.create 32;
      fetching = false;
      stopped = false;
      suppress_commits = false;
      verify_busy = Time.zero;
    }
  in
  (* Sequence 0 is a virtual, pre-executed genesis slot. *)
  t.own_checkpoints <- Int_map.add 0 t.chain t.own_checkpoints;
  Bp_net.Transport.set_handler transport ~tag:cfg.Config.tag (fun ~src payload ->
      on_envelope t ~src payload);
  t

let stop t =
  t.stopped <- true;
  (* Shutdown path: cancellation order cannot affect protocol state. *)
  (Req_tbl.iter (fun _ timer -> Engine.cancel timer) t.timers
  [@bplint.allow "R2-hiter"]);
  Req_tbl.reset t.timers;
  (match t.vc_timer with Some timer -> Engine.cancel timer | None -> ());
  t.vc_timer <- None;
  (match t.hold_timer with Some timer -> Engine.cancel timer | None -> ());
  t.hold_timer <- None;
  Bp_net.Transport.clear_handler t.transport ~tag:t.cfg.Config.tag
