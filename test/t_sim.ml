open Bp_sim

let ms = Time.of_ms

let test_time_arithmetic () =
  Alcotest.(check int) "add" 3_000_000 (Time.to_ns (Time.add (ms 1.0) (ms 2.0)));
  Alcotest.(check int) "diff" 1_000_000 (Time.to_ns (Time.diff (ms 2.0) (ms 1.0)));
  Alcotest.(check (float 1e-9)) "to_ms" 2.5 (Time.to_ms (ms 2.5));
  Alcotest.(check int) "scale" 500_000 (Time.to_ns (Time.scale (ms 1.0) 0.5));
  (try
     ignore (Time.diff (ms 1.0) (ms 2.0));
     Alcotest.fail "expected raise"
   with Invalid_argument _ -> ())

let test_engine_ordering () =
  let e = Engine.create () in
  let order = ref [] in
  let record tag () = order := tag :: !order in
  ignore (Engine.schedule e ~after:(ms 3.0) (record "c"));
  ignore (Engine.schedule e ~after:(ms 1.0) (record "a"));
  ignore (Engine.schedule e ~after:(ms 2.0) (record "b"));
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order)

let test_engine_fifo_at_same_instant () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 0 to 9 do
    ignore (Engine.schedule e ~after:(ms 1.0) (fun () -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "insertion order" (List.init 10 Fun.id) (List.rev !order)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let seen = ref Time.zero in
  ignore (Engine.schedule e ~after:(ms 5.0) (fun () -> seen := Engine.now e));
  Engine.run e;
  Alcotest.(check int) "clock at event" (Time.to_ns (ms 5.0)) (Time.to_ns !seen)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let timer = Engine.schedule e ~after:(ms 1.0) (fun () -> fired := true) in
  Engine.cancel timer;
  Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let hits = ref 0 in
  ignore
    (Engine.schedule e ~after:(ms 1.0) (fun () ->
         incr hits;
         ignore (Engine.schedule e ~after:(ms 1.0) (fun () -> incr hits))));
  Engine.run e;
  Alcotest.(check int) "both fired" 2 !hits;
  Alcotest.(check int) "final clock" (Time.to_ns (ms 2.0)) (Time.to_ns (Engine.now e))

let test_engine_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  ignore (Engine.schedule e ~after:(ms 1.0) (fun () -> incr hits));
  ignore (Engine.schedule e ~after:(ms 10.0) (fun () -> incr hits));
  Engine.run ~until:(ms 5.0) e;
  Alcotest.(check int) "only first" 1 !hits;
  Alcotest.(check int) "clock clamped" (Time.to_ns (ms 5.0)) (Time.to_ns (Engine.now e));
  Engine.run e;
  Alcotest.(check int) "resumed" 2 !hits

let test_engine_periodic () =
  let e = Engine.create () in
  let hits = ref 0 in
  let timer =
    Engine.periodic e ~every:(ms 2.0) (fun () ->
        incr hits;
        if !hits = 5 then raise Exit)
  in
  (try Engine.run e with Exit -> ());
  Engine.cancel timer;
  Engine.run e;
  Alcotest.(check int) "five firings" 5 !hits;
  Alcotest.(check int) "clock" (Time.to_ns (ms 10.0)) (Time.to_ns (Engine.now e))

let test_engine_periodic_cancel_from_action () =
  let e = Engine.create () in
  let hits = ref 0 in
  let timer = ref None in
  timer :=
    Some
      (Engine.periodic e ~every:(ms 1.0) (fun () ->
           incr hits;
           if !hits = 3 then Engine.cancel (Option.get !timer)));
  Engine.run e;
  Alcotest.(check int) "stopped at three" 3 !hits

let test_engine_schedule_at_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:(ms 2.0) (fun () -> ()));
  Engine.run e;
  try
    ignore (Engine.schedule_at e (ms 1.0) (fun () -> ()));
    Alcotest.fail "expected raise"
  with Invalid_argument _ -> ()

(* [pending] is O(1) bookkeeping, not a heap scan — these pin down its
   value through every transition: schedule, cancel (before and after
   firing), periodic re-arm, and the drain at end of run. *)
let test_engine_pending_accounting () =
  let e = Engine.create () in
  Alcotest.(check int) "empty" 0 (Engine.pending e);
  let timers =
    List.init 10 (fun i -> Engine.schedule e ~after:(ms (float_of_int (i + 1))) ignore)
  in
  Alcotest.(check int) "ten live" 10 (Engine.pending e);
  Alcotest.(check int) "no backlog yet" 0 (Engine.cancelled_backlog e);
  List.iteri (fun i t -> if i mod 2 = 0 then Engine.cancel t) timers;
  Alcotest.(check int) "five live after cancels" 5 (Engine.pending e);
  Alcotest.(check int) "five in backlog" 5 (Engine.cancelled_backlog e);
  (* Double-cancel must not double-count. *)
  Engine.cancel (List.hd timers);
  Alcotest.(check int) "idempotent cancel" 5 (Engine.pending e);
  Alcotest.(check int) "idempotent backlog" 5 (Engine.cancelled_backlog e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e);
  Alcotest.(check int) "backlog drained" 0 (Engine.cancelled_backlog e)

let test_engine_pending_periodic () =
  let e = Engine.create () in
  let hits = ref 0 in
  let timer = ref None in
  timer :=
    Some
      (Engine.periodic e ~every:(ms 1.0) (fun () ->
           incr hits;
           (* While the action runs the next occurrence is already queued. *)
           Alcotest.(check int) "re-armed" 1 (Engine.pending e);
           if !hits = 3 then Option.iter Engine.cancel !timer));
  Alcotest.(check int) "one live timer" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "three firings" 3 !hits;
  Alcotest.(check int) "cancelled and drained" 0 (Engine.pending e)

(* Mass-cancellation beyond the purge threshold compacts the heap eagerly
   (backlog returns to zero on the next schedule) and never loses or
   reorders the survivors. *)
let test_engine_purge_compacts_backlog () =
  let e = Engine.create () in
  let fired = ref [] in
  let timers =
    Array.init 1000 (fun i ->
        Engine.schedule e
          ~after:(ms (float_of_int (i + 1)))
          (fun () -> fired := i :: !fired))
  in
  Array.iteri (fun i t -> if i < 600 then Engine.cancel t) timers;
  Alcotest.(check int) "live survivors" 400 (Engine.pending e);
  Alcotest.(check int) "backlog before purge" 600 (Engine.cancelled_backlog e);
  (* Backlog (600) exceeds both the threshold and the live count, so the
     next schedule triggers the eager purge. *)
  ignore (Engine.schedule e ~after:(ms 5000.0) ignore);
  Alcotest.(check int) "backlog purged" 0 (Engine.cancelled_backlog e);
  Alcotest.(check int) "survivors intact" 401 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "survivors fire in schedule order"
    (List.init 400 (fun i -> 600 + i))
    (List.rev !fired)

let test_engine_determinism () =
  let run_once () =
    let e = Engine.create ~seed:7L () in
    let rng = Bp_util.Rng.split (Engine.rng e) in
    let acc = ref [] in
    for _ = 1 to 20 do
      let d = Bp_util.Rng.float rng 10.0 in
      ignore (Engine.schedule e ~after:(Time.of_ms d) (fun () -> acc := d :: !acc))
    done;
    Engine.run e;
    !acc
  in
  Alcotest.(check (list (float 0.0))) "identical traces" (run_once ()) (run_once ())

(* One timer record per one-shot event: a [schedule] of a preallocated
   closure followed by the [step] that fires it allocates that record
   and nothing else — no separate heap entry, no option on the pop, no
   closure in [step]. *)
let test_engine_event_allocates_one_record () =
  let e = Engine.create () in
  let hits = ref 0 in
  let action () = incr hits in
  let after = Time.of_ns 10 in
  let timer_words = 1 + Obj.size (Obj.repr (Engine.schedule e ~after action)) in
  ignore (Engine.step e);
  let events = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to events do
    ignore (Engine.schedule e ~after action);
    ignore (Engine.step e)
  done;
  let per_event = (Gc.minor_words () -. before) /. float_of_int events in
  Alcotest.(check int) "every event fired" (events + 1) !hits;
  (* The float [Gc.minor_words] boxes is the only other allocation. *)
  Alcotest.(check bool)
    (Printf.sprintf "%.4f words per event, timer record %d" per_event timer_words)
    true
    (per_event < float_of_int timer_words +. 0.01)

(* Lockstep against [Engine_spec], a sorted-list specification of the
   engine: random programs of schedules, periodic timers, cancels,
   single steps and bounded runs go to both, and after every operation
   both must have fired the same timers in the same order and agree on
   [now], [pending] and [cancelled_backlog]. Times are a few nanoseconds
   apart so that ties, and with them the seq tie-break, are common. *)
type effect =
  | Nothing
  | Cancel_self
  | Cancel_other of int (* the timer this many places back, when fired *)
  | Spawn of int (* schedule a plain one-shot this far ahead *)

type op =
  | Sched of int * effect
  | At of int * effect
  | Every of int * effect
  | Cancel of int (* the timer this many places back *)
  | Burst of int * int (* schedule n one-shots, cancel all but every k-th *)
  | Step
  | Run_until of int

let show_effect = function
  | Nothing -> "-"
  | Cancel_self -> "self"
  | Cancel_other k -> Printf.sprintf "cancel-%d" k
  | Spawn d -> Printf.sprintf "spawn+%d" d

let show_op = function
  | Sched (d, f) -> Printf.sprintf "sched+%d/%s" d (show_effect f)
  | At (d, f) -> Printf.sprintf "at+%d/%s" d (show_effect f)
  | Every (p, f) -> Printf.sprintf "every%d/%s" p (show_effect f)
  | Cancel k -> Printf.sprintf "cancel-%d" k
  | Burst (n, k) -> Printf.sprintf "burst%d/keep%d" n k
  | Step -> "step"
  | Run_until d -> Printf.sprintf "run+%d" d

let gen_effect =
  QCheck.Gen.(
    frequency
      [
        (6, return Nothing);
        (1, return Cancel_self);
        (2, map (fun k -> Cancel_other k) (int_bound 8));
        (2, map (fun d -> Spawn d) (int_bound 6));
      ])

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun d f -> Sched (d, f)) (int_bound 12) gen_effect);
        (2, map2 (fun d f -> At (d, f)) (int_bound 12) gen_effect);
        (2, map2 (fun p f -> Every (p, f)) (int_range 1 6) gen_effect);
        (4, map (fun k -> Cancel k) (int_bound 10));
        (1, map2 (fun n k -> Burst (n, k)) (int_range 1 400) (int_range 2 20));
        (5, return Step);
        (3, map (fun d -> Run_until d) (int_bound 20));
      ])

let arb_program =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map show_op ops))
    QCheck.Gen.(list_size (0 -- 80) gen_op)

module type ENGINE = sig
  type t
  type timer

  val create : ?seed:int64 -> unit -> t
  val now : t -> Time.t
  val schedule : t -> after:Time.t -> (unit -> unit) -> timer
  val schedule_at : t -> Time.t -> (unit -> unit) -> timer
  val periodic : t -> every:Time.t -> (unit -> unit) -> timer
  val cancel : timer -> unit
  val pending : t -> int
  val cancelled_backlog : t -> int
  val run : ?until:Time.t -> ?max_events:int -> t -> unit
  val step : t -> bool
end

(* What one engine shows after each operation: the ids fired by it, in
   order, then [now], [pending] and [cancelled_backlog]. *)
type observation = { fired : int list; now : int; live : int; backlog : int }

module Drive (E : ENGINE) = struct
  let run ops =
    let e = E.create () in
    let timers = ref [||] and count = ref 0 in
    let back k = if !count = 0 then None else Some !timers.(!count - 1 - (k mod !count)) in
    let fired = ref [] in
    let rec add arm effect =
      let id = !count in
      if id = Array.length !timers then
        timers := Array.append !timers (Array.make (max 16 id) None);
      count := id + 1;
      let action () =
        fired := id :: !fired;
        match effect with
        | Nothing -> ()
        | Cancel_self -> Option.iter E.cancel !timers.(id)
        | Cancel_other k -> Option.iter (Option.iter E.cancel) (back k)
        | Spawn d -> ignore (add (E.schedule e ~after:(Time.of_ns d)) Nothing)
      in
      let timer = arm action in
      !timers.(id) <- Some timer;
      timer
    in
    let apply = function
      | Sched (d, f) -> ignore (add (E.schedule e ~after:(Time.of_ns d)) f)
      | At (d, f) -> ignore (add (E.schedule_at e (Time.add (E.now e) (Time.of_ns d))) f)
      | Every (p, f) -> ignore (add (E.periodic e ~every:(Time.of_ns p)) f)
      | Cancel k -> Option.iter (Option.iter E.cancel) (back k)
      | Burst (n, k) ->
          for i = 0 to n - 1 do
            let timer = add (E.schedule e ~after:(Time.of_ns (i mod 50))) Nothing in
            if i mod k <> 0 then E.cancel timer
          done
      | Step -> ignore (E.step e)
      | Run_until d -> E.run ~until:(Time.add (E.now e) (Time.of_ns d)) e
    in
    List.map
      (fun op ->
        fired := [];
        apply op;
        {
          fired = List.rev !fired;
          now = Time.to_ns (E.now e);
          live = E.pending e;
          backlog = E.cancelled_backlog e;
        })
      ops
end

module Prod = Drive (Engine)
module Model = Drive (Engine_spec)

let engine_model_test =
  QCheck.Test.make ~count:300 ~name:"engine = reference model" arb_program
    (fun ops ->
      let rec agree i ops got want =
        match (ops, got, want) with
        | [], [], [] -> true
        | op :: ops, g :: got, w :: want ->
            if g = w then agree (i + 1) ops got want
            else
              QCheck.Test.fail_reportf
                "after op %d (%s): fired [%s] now %d pending %d backlog %d; \
                 reference fired [%s] now %d pending %d backlog %d"
                i (show_op op)
                (String.concat "," (List.map string_of_int g.fired))
                g.now g.live g.backlog
                (String.concat "," (List.map string_of_int w.fired))
                w.now w.live w.backlog
        | _ -> QCheck.Test.fail_report "observation lists differ in length"
      in
      agree 0 ops (Prod.run ops) (Model.run ops))

let test_topology_paper_values () =
  let t = Topology.aws_paper in
  Alcotest.(check int) "4 DCs" 4 (Topology.num_dcs t);
  Alcotest.(check string) "name" "Virginia" (Topology.name t Topology.dc_virginia);
  Alcotest.(check (float 1e-6)) "C-O rtt" 19.0
    (Time.to_ms (Topology.rtt t Topology.dc_california Topology.dc_oregon));
  Alcotest.(check (float 1e-6)) "V-I rtt" 70.0
    (Time.to_ms (Topology.rtt t Topology.dc_virginia Topology.dc_ireland));
  Alcotest.(check (float 1e-6)) "one way symmetric" 9.5
    (Time.to_ms (Topology.one_way t Topology.dc_oregon Topology.dc_california));
  Alcotest.(check (option int)) "lookup" (Some Topology.dc_ireland)
    (Topology.dc_of_name t "Ireland")

let test_topology_neighbors () =
  let t = Topology.aws_paper in
  Alcotest.(check (list int)) "california neighbors"
    [ Topology.dc_oregon; Topology.dc_virginia; Topology.dc_ireland ]
    (Topology.neighbors_by_rtt t Topology.dc_california);
  Alcotest.(check (list int)) "ireland neighbors"
    [ Topology.dc_virginia; Topology.dc_california; Topology.dc_oregon ]
    (Topology.neighbors_by_rtt t Topology.dc_ireland)

let test_topology_closest_majority () =
  let t = Topology.aws_paper in
  (* n=4, majority=3: the 2nd-closest other site. *)
  Alcotest.(check (float 1e-6)) "california" 61.0
    (Time.to_ms (Topology.closest_majority_rtt t Topology.dc_california));
  Alcotest.(check (float 1e-6)) "virginia" 70.0
    (Time.to_ms (Topology.closest_majority_rtt t Topology.dc_virginia));
  Alcotest.(check (float 1e-6)) "oregon" 79.0
    (Time.to_ms (Topology.closest_majority_rtt t Topology.dc_oregon));
  Alcotest.(check (float 1e-6)) "ireland" 130.0
    (Time.to_ms (Topology.closest_majority_rtt t Topology.dc_ireland))

let test_topology_transfer_time () =
  let t = Topology.aws_paper in
  (* 640 MB/s: 640 KB should take 1 ms. *)
  Alcotest.(check (float 1e-3)) "640KB in 1ms" 1.0
    (Time.to_ms (Topology.transfer_time t 640_000))

let test_topology_validation () =
  let bad () =
    Topology.make ~names:[| "a"; "b" |]
      ~rtt_ms:[| [| 0.0; 1.0 |]; [| 2.0; 0.0 |] |]
      ()
  in
  (try
     ignore (bad ());
     Alcotest.fail "asymmetric accepted"
   with Invalid_argument _ -> ())

let node dc idx = Addr.make ~dc ~idx

let setup ?faults () =
  let e = Engine.create ~seed:99L () in
  let net = Network.create e Topology.aws_paper ?faults () in
  (e, net)

let send_string net ~src ~dst s =
  Network.send net ~src ~dst (Network.frame_of_string s)

let test_network_latency () =
  let e, net = setup () in
  let a = node Topology.dc_california 0 and b = node Topology.dc_oregon 0 in
  Network.register net a (fun ~src:_ ~hint:_ _ -> ());
  let arrival = ref Time.zero in
  Network.register net b (fun ~src:_ ~hint:_ _ -> arrival := Engine.now e);
  send_string net ~src:a ~dst:b "hi";
  Engine.run e;
  (* one-way C-O = 9.5ms plus 2-byte serialization (negligible). *)
  let got = Time.to_ms !arrival in
  Alcotest.(check bool) "about 9.5ms" true (got >= 9.5 && got < 9.6)

let test_network_intra_dc_latency () =
  let e, net = setup () in
  let a = node 0 0 and b = node 0 1 in
  Network.register net a (fun ~src:_ ~hint:_ _ -> ());
  let arrival = ref Time.zero in
  Network.register net b (fun ~src:_ ~hint:_ _ -> arrival := Engine.now e);
  send_string net ~src:a ~dst:b "hi";
  Engine.run e;
  let got = Time.to_ms !arrival in
  Alcotest.(check bool) "about 0.25ms" true (got >= 0.25 && got < 0.3)

let test_network_nic_serialization () =
  (* Two large back-to-back sends: the second's departure waits on the
     first (shared NIC), so arrivals are spaced by the transfer time. *)
  let e, net = setup () in
  let a = node 0 0 and b = node 0 1 in
  Network.register net a (fun ~src:_ ~hint:_ _ -> ());
  let arrivals = ref [] in
  Network.register net b (fun ~src:_ ~hint:_ _ -> arrivals := Engine.now e :: !arrivals);
  let payload = String.make 640_000 'x' in
  send_string net ~src:a ~dst:b payload;
  send_string net ~src:a ~dst:b payload;
  Engine.run e;
  match List.rev !arrivals with
  | [ t1; t2 ] ->
      let gap = Time.to_ms (Time.diff t2 t1) in
      Alcotest.(check bool) "spaced by ~1ms serialization" true
        (gap > 0.9 && gap < 1.1)
  | _ -> Alcotest.fail "expected two deliveries"

let test_network_crashed_receiver_drops () =
  let e, net = setup () in
  let a = node 0 0 and b = node 0 1 in
  Network.register net a (fun ~src:_ ~hint:_ _ -> ());
  let got = ref 0 in
  Network.register net b (fun ~src:_ ~hint:_ _ -> incr got);
  Network.crash net b;
  send_string net ~src:a ~dst:b "hi";
  Engine.run e;
  Alcotest.(check int) "dropped" 0 !got;
  Network.recover net b;
  send_string net ~src:a ~dst:b "hi";
  Engine.run e;
  Alcotest.(check int) "delivered after recover" 1 !got

let test_network_crashed_sender_drops () =
  let e, net = setup () in
  let a = node 0 0 and b = node 0 1 in
  Network.register net a (fun ~src:_ ~hint:_ _ -> ());
  let got = ref 0 in
  Network.register net b (fun ~src:_ ~hint:_ _ -> incr got);
  Network.crash net a;
  send_string net ~src:a ~dst:b "hi";
  Engine.run e;
  Alcotest.(check int) "dropped" 0 !got

let test_network_crash_dc () =
  let e, net = setup () in
  let a = node 0 0 and b = node 0 1 and c = node 1 0 in
  Network.register net a (fun ~src:_ ~hint:_ _ -> ());
  let got_b = ref 0 and got_c = ref 0 in
  Network.register net b (fun ~src:_ ~hint:_ _ -> incr got_b);
  Network.register net c (fun ~src:_ ~hint:_ _ -> incr got_c);
  Network.crash_dc net 0;
  (* a is crashed too: send from c instead. *)
  send_string net ~src:c ~dst:b "hi";
  Engine.run e;
  Alcotest.(check int) "dc-0 node unreachable" 0 !got_b;
  Alcotest.(check bool) "a crashed" true (Network.is_crashed net a);
  Network.recover_dc net 0;
  send_string net ~src:c ~dst:b "hi";
  Engine.run e;
  Alcotest.(check int) "after recovery" 1 !got_b

let test_network_partition () =
  let e, net = setup () in
  let a = node 0 0 and b = node 1 0 in
  Network.register net a (fun ~src:_ ~hint:_ _ -> ());
  let got = ref 0 in
  Network.register net b (fun ~src:_ ~hint:_ _ -> incr got);
  Network.set_link net 0 1 `Down;
  send_string net ~src:a ~dst:b "hi";
  Engine.run e;
  Alcotest.(check int) "partitioned" 0 !got;
  Network.set_link net 0 1 `Up;
  send_string net ~src:a ~dst:b "hi";
  Engine.run e;
  Alcotest.(check int) "healed" 1 !got

let test_network_drop_fault () =
  let faults = { Network.no_faults with drop = 1.0 } in
  let e, net = setup ~faults () in
  let a = node 0 0 and b = node 0 1 in
  Network.register net a (fun ~src:_ ~hint:_ _ -> ());
  let got = ref 0 in
  Network.register net b (fun ~src:_ ~hint:_ _ -> incr got);
  for _ = 1 to 10 do
    send_string net ~src:a ~dst:b "hi"
  done;
  Engine.run e;
  Alcotest.(check int) "all dropped" 0 !got;
  Alcotest.(check int) "counted" 10 (Network.counters net).Network.dropped

let test_network_duplicate_fault () =
  let faults = { Network.no_faults with duplicate = 1.0 } in
  let e, net = setup ~faults () in
  let a = node 0 0 and b = node 0 1 in
  Network.register net a (fun ~src:_ ~hint:_ _ -> ());
  let got = ref 0 in
  Network.register net b (fun ~src:_ ~hint:_ _ -> incr got);
  send_string net ~src:a ~dst:b "hi";
  Engine.run e;
  Alcotest.(check int) "delivered twice" 2 !got

let test_network_corrupt_fault () =
  let faults = { Network.no_faults with corrupt = 1.0 } in
  let e, net = setup ~faults () in
  let a = node 0 0 and b = node 0 1 in
  Network.register net a (fun ~src:_ ~hint:_ _ -> ());
  let received = ref "" in
  Network.register net b (fun ~src:_ ~hint:_ p -> received := Network.bytes p);
  send_string net ~src:a ~dst:b "payload";
  Engine.run e;
  Alcotest.(check bool) "mutated" false (String.equal !received "payload");
  Alcotest.(check int) "same length" 7 (String.length !received)

let test_network_counters () =
  let e, net = setup () in
  let a = node 0 0 and b = node 0 1 in
  Network.register net a (fun ~src:_ ~hint:_ _ -> ());
  Network.register net b (fun ~src:_ ~hint:_ _ -> ());
  send_string net ~src:a ~dst:b "12345";
  Engine.run e;
  let c = Network.counters net in
  Alcotest.(check int) "sent" 1 c.Network.sent;
  Alcotest.(check int) "delivered" 1 c.Network.delivered;
  Alcotest.(check int) "bytes" 5 c.Network.bytes_sent

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "sim.time",
      [ tc "arithmetic" test_time_arithmetic ] );
    ( "sim.engine",
      [
        tc "event ordering" test_engine_ordering;
        tc "fifo at same instant" test_engine_fifo_at_same_instant;
        tc "clock advances" test_engine_clock_advances;
        tc "cancel" test_engine_cancel;
        tc "nested schedule" test_engine_nested_schedule;
        tc "run until" test_engine_until;
        tc "periodic" test_engine_periodic;
        tc "periodic cancel from action" test_engine_periodic_cancel_from_action;
        tc "schedule_at past rejected" test_engine_schedule_at_past_rejected;
        tc "pending accounting" test_engine_pending_accounting;
        tc "pending across periodic" test_engine_pending_periodic;
        tc "purge compacts backlog" test_engine_purge_compacts_backlog;
        tc "determinism" test_engine_determinism;
        tc "an event allocates one record" test_engine_event_allocates_one_record;
        QCheck_alcotest.to_alcotest engine_model_test;
      ] );
    ( "sim.topology",
      [
        tc "paper Table I values" test_topology_paper_values;
        tc "neighbors by rtt" test_topology_neighbors;
        tc "closest majority rtt" test_topology_closest_majority;
        tc "transfer time" test_topology_transfer_time;
        tc "validation" test_topology_validation;
      ] );
    ( "sim.network",
      [
        tc "wide-area latency" test_network_latency;
        tc "intra-dc latency" test_network_intra_dc_latency;
        tc "nic serialization" test_network_nic_serialization;
        tc "crashed receiver drops" test_network_crashed_receiver_drops;
        tc "crashed sender drops" test_network_crashed_sender_drops;
        tc "datacenter outage" test_network_crash_dc;
        tc "partition" test_network_partition;
        tc "drop fault" test_network_drop_fault;
        tc "duplicate fault" test_network_duplicate_fault;
        tc "corrupt fault" test_network_corrupt_fault;
        tc "counters" test_network_counters;
      ] );
  ]
