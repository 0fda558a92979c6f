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
  (* replica id, (view, digest) voted for, its signed Prepare envelope *)
  mutable prepares : (int * (int * string) * string) list;
  mutable commits : (int * (int * string)) list; (* replica id, (view, digest) *)
  mutable sent_prepare : bool;
  mutable sent_commit : bool;
  mutable committed : bool;
  mutable executed : bool;
  mutable in_pipeline : bool;
      (* counted in [t.pipeline]: has a digest, not yet committed *)
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
  mutable preverify : Msg.request list -> unit;
      (* verification prefetch hook (see set_preverifier) *)
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

(* A slot enters the pipeline when it gains a digest (the primary's own
   proposal, an accepted pre-prepare, or a new-view re-proposal) and
   leaves when it commits. The per-slot flag keeps the counter exact
   even when the same slot is touched through several of those paths. *)
let pipeline_enter t s =
  if not s.in_pipeline then begin
    s.in_pipeline <- true;
    t.pipeline <- t.pipeline + 1;
    t.occ_sum <- t.occ_sum + t.pipeline;
    t.occ_samples <- t.occ_samples + 1
  end

let pipeline_leave t s =
  if s.in_pipeline then begin
    s.in_pipeline <- false;
    t.pipeline <- t.pipeline - 1
  end

let self_addr t = t.cfg.Config.nodes.(t.id)

let request_key (r : Msg.request) = (r.Msg.client, r.Msg.ts)

(* The envelope of [body] and the delivery hint that goes with it, so
   receivers check the signature without decoding a copy of the body. *)
let seal t body =
  Msg.seal_with_hint ~cache:t.cache t.cfg ~sender:(self_addr t) body

(* Seal once, serialize the transport suffix once: the whole broadcast
   encodes the message exactly one time regardless of cluster size. *)
let broadcast_sealed t (sealed, hint) =
  Bp_net.Transport.broadcast t.transport ~hint ~dsts:t.cfg.Config.nodes
    ~tag:t.cfg.Config.tag sealed

let broadcast t body = broadcast_sealed t (seal t body)

let send_reply t (r : Msg.request) result =
  let body =
    Msg.Reply
      { view = t.view; ts = r.Msg.ts; client = r.Msg.client; replica = t.id; result }
  in
  let sealed, hint = seal t body in
  Addr.Tbl.replace t.last_reply r.Msg.client (r.Msg.ts, sealed);
  Bp_net.Transport.send t.transport ~hint ~dst:r.Msg.client ~tag:t.reply_tag
    sealed

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
          prepares = List.map (fun (_, _, envelope) -> envelope) matching;
        }
        :: acc
      else acc)
    t.slots []

(* A prepared proof holds when its batch hashes to its digest and 2f
   distinct replicas signed a Prepare for its (view, seq, digest). *)
let proof_valid ~cache cfg (p : Msg.prepared_proof) =
  String.equal p.Msg.pdigest (Msg.batch_digest ~cache p.Msg.pbatch)
  &&
  let signers =
    List.fold_left
      (fun signers envelope ->
        match Msg.verify_envelope ~cache cfg envelope with
        | Ok (Msg.Prepare { view; seq; digest; replica })
          when view = p.Msg.pview && seq = p.Msg.pseq
               && String.equal digest p.Msg.pdigest ->
            Int_set.add replica signers
        | Ok _ | Error _ -> signers)
      Int_set.empty p.Msg.prepares
  in
  Int_set.cardinal signers >= 2 * cfg.Config.f

let new_view_batches ~cache cfg ~view envelopes =
  (* Each envelope is verified once; the first View_change for [view]
     from each replica counts. *)
  let vcs =
    List.fold_left
      (fun vcs envelope ->
        match Msg.verify_envelope ~cache cfg envelope with
        | Ok (Msg.View_change vc)
          when vc.Msg.new_view = view && not (Int_map.mem vc.Msg.vc_replica vcs) ->
            Int_map.add vc.Msg.vc_replica vc vcs
        | Ok _ | Error _ -> vcs)
      Int_map.empty envelopes
  in
  if Int_map.cardinal vcs < Config.quorum cfg then None
  else begin
    (* min_s: the highest stable sequence supported by at least f+1
       view-change messages — at least one of those reporters is honest,
       so a lone byzantine node cannot truncate prepared batches by
       claiming an inflated stable checkpoint. *)
    let min_s =
      let stables = Int_map.fold (fun _ vc acc -> vc.Msg.stable_seq :: acc) vcs [] in
      match List.nth_opt (List.sort (fun a b -> Int.compare b a) stables) cfg.Config.f with
      | Some s -> s
      | None -> 0 (* unreachable: vcs passed the quorum check above *)
    in
    (* For each sequence above min_s, the valid proof of the highest view. *)
    let best =
      Int_map.fold
        (fun _ (vc : Msg.view_change) best ->
          List.fold_left
            (fun best (p : Msg.prepared_proof) ->
              if p.pseq <= min_s || not (proof_valid ~cache cfg p) then best
              else
                match Int_map.find_opt p.pseq best with
                | Some (q : Msg.prepared_proof) when q.pview >= p.pview -> best
                | Some _ | None -> Int_map.add p.pseq p best)
            best vc.prepared)
        vcs Int_map.empty
    in
    let max_s =
      match Int_map.max_binding_opt best with Some (seq, _) -> seq | None -> min_s
    in
    Some
      (List.init (max_s - min_s) (fun i ->
           let seq = min_s + 1 + i in
           match Int_map.find_opt seq best with
           | Some p -> (seq, p.Msg.pdigest, p.Msg.pbatch)
           | None -> (seq, Msg.batch_digest ~cache [], [])))
  end

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
    let sealed =
      seal t
        (Msg.View_change
           {
             new_view = target;
             stable_seq = t.low_watermark;
             prepared = prepared_proofs t;
             vc_replica = t.id;
           })
    in
    (* Record our own view-change message, then send that same envelope. *)
    record_view_change t target t.id (fst sealed);
    broadcast_sealed t sealed;
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

(* The new primary broadcasts New_view, carrying only its certificate,
   once it holds 2f+1 view-change messages for the target view. *)
and maybe_new_view t target =
  if Config.primary_of_view t.cfg target = t.id && target > t.view then begin
    let envelopes =
      List.map snd (Option.value ~default:[] (Int_map.find_opt target t.view_changes))
    in
    if List.length envelopes >= Config.quorum t.cfg then
      match new_view_batches ~cache:t.cache t.cfg ~view:target envelopes with
      | None -> ()
      | Some batches ->
          broadcast t
            (Msg.New_view
               { view = target; view_change_envelopes = envelopes; replica = t.id });
          enter_new_view t target batches
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
  let max_seq = List.fold_left (fun acc (s, _, _) -> Int.max acc s) 0 batches in
  t.next_seq <- Int.max t.next_seq (Int.max max_seq t.last_exec + 1);
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
           the window behind endless view changes. At depth 1 a failing
           verdict always withholds and execution does not re-verify; that
           depth-1 gate, paired with the one in try_execute, is the known
           Lemma 3 hole (ROADMAP item 1: two withdrawals sharing a batch
           both commit). *)
        let all_valid = List.for_all t.verifier s.batch in
        let verdict_final =
          t.cfg.Config.max_in_flight > 1 && s.seq = t.last_exec + 1
        in
        if all_valid || verdict_final then begin
          s.sent_commit <- true;
          if not t.suppress_commits then
            broadcast t
              (Msg.Commit { view = s.sview; seq = s.seq; digest; replica = t.id })
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
               decoded op must not outlive the execution. The record is
               the one the client sealed (delivery hints share it across
               the unit), so the memo is dropped only by the last of the
               cluster's replicas to execute it: the others reuse the
               first one's decoding. *)
            r.Msg.executions <- r.Msg.executions + 1;
            if r.Msg.executions >= Config.n t.cfg then
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
           dropped here (an honest primary never proposes them), and so is
           their timer: a dropped request never executes, and its timer
           would make the primary suspect itself. *)
        if t.verifier r then begin
          batch := r :: !batch;
          incr blen
        end
        else cancel_request_timer t (request_key r)
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

and handle_request t ~envelope ~hint (r : Msg.request) =
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
        let sealed, hint = seal t body in
        Bp_net.Transport.send t.transport ~hint ~dst:r.Msg.client
          ~tag:t.reply_tag sealed
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
            Bp_net.Transport.send t.transport ?hint
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
    (* One counted batch for the whole batch's client signatures,
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
          (* Non-head slot: run its signature checks now, so the
             verification routines hit the per-node cache when
             check_prepared judges it. The head slot is judged at once
             below. *)
          if s.seq > t.last_exec + 1 then t.preverify batch;
          List.iter (fun r -> cancel_request_timer t (request_key r)) batch;
          List.iter (fun r -> arm_request_timer t r) batch;
          send_prepare t s;
          check_prepared t s;
          check_committed t s
        end
  end

and handle_prepare t ~view ~seq ~digest ~replica ~envelope =
  if in_window t seq && view >= 0 then begin
    let s = slot_of t seq in
    (* Buffer each replica's vote with the (view, digest) it voted for —
       votes for other digests are kept but never counted, so a byzantine
       flood cannot inflate the prepared count. *)
    if not (List.exists (fun (r, _, _) -> r = replica) s.prepares) then begin
      s.prepares <- (replica, (view, digest), envelope) :: s.prepares;
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
    let upto = Int.min t.last_exec (from_seq + 31) in
    for seq = upto downto from_seq do
      match Hashtbl.find_opt t.archive seq with
      | Some (digest, batch) -> batches := (seq, digest, batch) :: !batches
      | None -> ()
    done;
    if not (List.is_empty !batches) then begin
      let body = Msg.Fetch_reply { batches = !batches; replica = t.id } in
      let sealed, hint = seal t body in
      Bp_net.Transport.send t.transport ~hint
        ~dst:t.cfg.Config.nodes.(replica) ~tag:t.cfg.Config.tag sealed
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

let on_envelope t ~src:_ ~hint envelope =
  if not t.stopped then
    match Msg.verify_envelope ~cache:t.cache ?hint t.cfg envelope with
    | Error e -> Log.debug (fun m -> m "pbft %d: rejected envelope: %s" t.id e)
    | Ok body -> (
        match body with
        | Msg.Request r -> handle_request t ~envelope ~hint r
        | Msg.Pre_prepare { view; seq; digest; batch } ->
            handle_pre_prepare t ~view ~seq ~digest ~batch
        | Msg.Prepare { view; seq; digest; replica } ->
            handle_prepare t ~view ~seq ~digest ~replica ~envelope
        | Msg.Commit { view; seq; digest; replica } ->
            handle_commit t ~view ~seq ~digest ~replica
        | Msg.Reply _ -> () (* replicas ignore replies *)
        | Msg.Checkpoint { seq; state_digest; replica } ->
            handle_checkpoint t ~seq ~state_digest ~replica
        | Msg.View_change { new_view; vc_replica = replica; _ } ->
            if new_view > t.view then begin
              record_view_change t new_view replica envelope;
              (* Liveness rule: join a view change supported by f+1. *)
              let support =
                List.length
                  (Option.value ~default:[] (Int_map.find_opt new_view t.view_changes))
              in
              if support >= t.cfg.Config.f + 1 then begin
                match t.status with
                | View_changing v when v >= new_view -> ()
                | _ -> move_to_view t new_view
              end
            end
        | Msg.New_view { view; view_change_envelopes; replica } ->
            if
              view > t.view
              && Config.primary_of_view t.cfg view = replica
              && replica <> t.id
            then begin
              match new_view_batches ~cache:t.cache t.cfg ~view view_change_envelopes with
              | Some batches -> enter_new_view t view batches
              | None ->
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
      preverify = ignore;
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
    }
  in
  (* Sequence 0 is a virtual, pre-executed genesis slot. *)
  t.own_checkpoints <- Int_map.add 0 t.chain t.own_checkpoints;
  Bp_net.Transport.set_handler transport ~tag:cfg.Config.tag (on_envelope t);
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
