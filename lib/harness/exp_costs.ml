open Bp_sim
open Blockplane

type sample = {
  nodes_per_participant : int;
  commit_msgs : int;
  commit_bytes : int;
  send_msgs : int;
  send_bytes : int;
}

let measure ~knobs ~fi ~fg ~n ~seed =
  let w = Runner.fresh_world ~knobs ~seed ~fi ~fg ~max_in_flight:8 () in
  let engine = w.Runner.engine and net = w.Runner.net in
  let api = Deployment.api w.Runner.dep 0 in
  (* Let the deployment's periodic machinery (probes, heartbeats) settle
     into steady state before taking baselines, so we bill per-op deltas,
     not background traffic. *)
  Engine.run ~until:(Time.of_ms 100.0) engine;
  let snapshot () =
    let c = Network.counters net in
    (c.Network.sent, c.Network.bytes_sent)
  in
  let run_ops op =
    let m0, b0 = snapshot () in
    let t0 = Engine.now engine in
    ignore
      (Runner.sequential engine ~n ~warmup:0 ~run_one:(fun i ~on_done ->
           op i ~k:(fun () -> on_done 0.0)));
    (* Subtract the background traffic accrued over the same span. *)
    let span_ms = Time.to_ms (Time.diff (Engine.now engine) t0) in
    let m1, b1 = snapshot () in
    (m1 - m0, b1 - b0, span_ms)
  in
  (* Background rate estimate over an idle second. *)
  let mb0, bb0 = snapshot () in
  Engine.run ~until:(Time.add (Engine.now engine) (Time.of_sec 1.0)) engine;
  let mb1, bb1 = snapshot () in
  let bg_msgs_per_ms = float_of_int (mb1 - mb0) /. 1000.0 in
  let bg_bytes_per_ms = float_of_int (bb1 - bb0) /. 1000.0 in
  let commit_msgs, commit_bytes, commit_span =
    run_ops (fun i ~k -> Api.log_commit api (Runner.payload ~size:1000 i) ~on_done:k)
  in
  let send_msgs, send_bytes, send_span =
    run_ops (fun i ~k ->
        Api.send api ~dest:1 (Runner.payload ~size:1000 i) ~on_done:k)
  in
  let netto count bg span = float_of_int count -. (bg *. span) in
  {
    nodes_per_participant = (3 * fi) + 1;
    commit_msgs =
      int_of_float (netto commit_msgs bg_msgs_per_ms commit_span /. float_of_int n);
    commit_bytes =
      int_of_float (netto commit_bytes bg_bytes_per_ms commit_span /. float_of_int n);
    send_msgs =
      int_of_float (netto send_msgs bg_msgs_per_ms send_span /. float_of_int n);
    send_bytes =
      int_of_float (netto send_bytes bg_bytes_per_ms send_span /. float_of_int n);
  }

let configs = [ (1, 0); (1, 1); (2, 0) ]

(* One task per (fi, fg) configuration; [i] fixes the seed. *)
let costs_task ~knobs ~scale i (fi, fg) () =
  let n = Runner.scaled scale 10 in
  let s = measure ~knobs ~fi ~fg ~n ~seed:(Int64.of_int (6500 + i)) in
  [
    Printf.sprintf "fi=%d fg=%d" fi fg;
    string_of_int s.nodes_per_participant;
    string_of_int (4 * s.nodes_per_participant);
    string_of_int s.commit_msgs;
    string_of_int (s.commit_bytes / 1000);
    string_of_int s.send_msgs;
    string_of_int (s.send_bytes / 1000);
  ]

let costs_merge rows =
  [
    {
      Report.id = "costs";
      title = "Resource costs of byzantizing (SVI-D, measured)";
      paper_ref = "SVI-D discusses these costs qualitatively; measured per 1 KB operation";
      header =
        [
          "config";
          "nodes/participant";
          "total nodes";
          "msgs/commit";
          "KB/commit";
          "msgs/send";
          "KB/send";
        ];
      rows;
      metrics = [];
      notes =
        [
          "a benign single-copy deployment would use 1 node/participant and ~2 msgs/send";
          "fg=1 adds mirror requests and fi+1 attestations per committed entry";
        ];
    };
  ]

let costs_plan ~knobs ~scale =
  Runner.Plan
    {
      tasks = List.mapi (fun i c -> costs_task ~knobs ~scale i c) configs;
      merge = costs_merge;
    }

let costs ?(scale = 1.0) () =
  Runner.run_plan (costs_plan ~knobs:Knobs.default ~scale)
