open Bp_sim

type result = {
  latencies : Bp_util.Stats.t;
  makespan_ms : float;
  achieved_per_sec : float;
}

let open_loop engine ~rng ~rate_per_sec ~count ~submit =
  if rate_per_sec <= 0.0 || count <= 0 then invalid_arg "Workload.open_loop";
  let stats = Bp_util.Stats.create () in
  let mean_gap_ms = 1000.0 /. rate_per_sec in
  let completed = ref 0 in
  let first_arrival = ref None in
  let last_completion = ref Time.zero in
  let rec arrive i at =
    ignore
      (Engine.schedule_at engine at (fun () ->
           (* Streaming arrivals: the successor is drawn and scheduled
              from inside this event, before the request is submitted, so
              at most one arrival per process sits in the heap at a time —
              O(1) occupancy however large [count] — while the gap
              sequence is drawn in arrival order, exactly the draws the
              old pre-scheduling loop made from the same [rng]. *)
           if i + 1 < count then begin
             let gap = Time.of_ms (Bp_util.Rng.exponential rng ~mean:mean_gap_ms) in
             arrive (i + 1) (Time.add at gap)
           end;
           if !first_arrival = None then first_arrival := Some (Engine.now engine);
           let t0 = Engine.now engine in
           submit i ~on_done:(fun () ->
               incr completed;
               last_completion := Engine.now engine;
               Bp_util.Stats.add stats (Time.to_ms (Time.diff (Engine.now engine) t0)))))
  in
  arrive 0 (Time.add (Engine.now engine) (Time.of_ms mean_gap_ms));
  Runner.drive engine ~what:"Workload.open_loop" ~finished:(fun () ->
      !completed >= count);
  let start = Option.value ~default:Time.zero !first_arrival in
  let makespan_ms = Time.to_ms (Time.diff !last_completion start) in
  {
    latencies = stats;
    makespan_ms;
    achieved_per_sec = float_of_int count /. (makespan_ms /. 1000.0);
  }
