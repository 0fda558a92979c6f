(* bpbench: the repository benchmark. One workload per invocation, in one
   process on one domain; see README.md for the workloads and metrics.

     bpbench --workload NAME --seed N [--scale S] [--trace] [--json FILE]
             [--trace-out FILE]
     bpbench --smoke

   Prints "name value unit" for every metric and one line per correctness
   check, and exits 1 if any check fails. Simulated-time metrics are exact
   for a given seed and scale; host metrics (set-up, CPU per op, heap, the
   traced timers) vary from run to run. *)

module W = Workloads

(* Shortest of %.15g / %.17g that reads back as the same float. *)
let num v =
  let s = Printf.sprintf "%.15g" v in
  if Float.equal (float_of_string s) v then s else Printf.sprintf "%.17g" v

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let run ~name ~seed ~scale ~setups ~traced ~keep_spans =
  match List.assoc_opt name W.all with
  | None -> None
  | Some workload ->
      let p = Probe.create ~traced ~keep_spans in
      let r = workload { W.p; seed; scale; setups } in
      Some (p, { r with W.metrics = r.W.metrics @ [ W.host "top_heap_mb" "MB" (top_heap_mb ()) ] })

let unit_cost_metrics () =
  List.concat_map
    (fun (row, parsed) ->
      let m v = Option.value ~default:Float.nan (Option.map v parsed) in
      [
        W.host (Printf.sprintf "unit_cost.%s_ns" row) "ns" (m fst);
        W.host (Printf.sprintf "unit_cost.%s_iqr_ns" row) "ns" (m snd);
      ])
    (Unit_cost.run_all ())

let print_result (r : W.result) =
  List.iter (fun (m : W.metric) -> Printf.printf "%s %s %s\n" m.W.name (num m.W.value) m.W.unit_) r.W.metrics;
  List.iter (fun (c, ok) -> Printf.printf "# check %s: %s\n" c (if ok then "ok" else "FAILED")) r.W.checks;
  Printf.printf "# attempted %d failed %d\n" r.W.attempted r.W.failed

let write_json ~path ~name ~seed ~scale ~traced (r : W.result) =
  let oc = open_out path in
  let field (m : W.metric) =
    Printf.sprintf "%S:{\"value\":%s,\"unit\":%S,\"kind\":%S}" m.W.name
      (if Float.is_finite m.W.value then num m.W.value else "null")
      m.W.unit_
      (match m.W.kind with W.Sim -> "sim" | W.Host -> "host")
  in
  Printf.fprintf oc
    "{\"workload\":%S,\"seed\":%d,\"scale\":%s,\"traced\":%b,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\n\"checks\":{%s},\n\"metrics\":{%s}}\n"
    name seed (num scale) traced (r.W.failed = 0) r.W.attempted r.W.failed
    (String.concat "," (List.map (fun (c, ok) -> Printf.sprintf "%S:%b" c ok) r.W.checks))
    (String.concat ",\n" (List.map field r.W.metrics));
  close_out oc

(* The runtest gate: every workload at 2% scale, untraced and traced.
   Prints the traced run's simulated-time metrics for the diff against
   smoke.expected; fails on a check or on any untraced/traced mismatch. *)
let smoke () =
  let ok = ref true in
  List.iter
    (fun (name, _) ->
      let go traced =
        match run ~name ~seed:1 ~scale:0.02 ~setups:1 ~traced ~keep_spans:false with
        | Some (_, r) -> r
        | None -> invalid_arg name
      in
      let u = go false and t = go true in
      let sims (r : W.result) = List.filter (fun (m : W.metric) -> m.W.kind = W.Sim) r.W.metrics in
      List.iter
        (fun (m : W.metric) ->
          match List.find_opt (fun (x : W.metric) -> String.equal x.W.name m.W.name) (sims t) with
          | Some x when Float.equal x.W.value m.W.value -> ()
          | _ ->
              ok := false;
              Printf.eprintf "smoke: %s %s differs between untraced and traced runs\n" name m.W.name)
        (sims u);
      List.iter
        (fun (r : W.result) ->
          List.iter
            (fun (c, passed) ->
              if not passed then begin
                ok := false;
                Printf.eprintf "smoke: %s check failed: %s\n" name c
              end)
            r.W.checks)
        [ u; t ];
      List.iter
        (fun (m : W.metric) -> Printf.printf "%s %s %s %s\n" name m.W.name (num m.W.value) m.W.unit_)
        (sims t))
    W.all;
  if not !ok then exit 1

let () =
  let workload = ref "" and seed = ref 1 and scale = ref 1.0 in
  let traced = ref false and json = ref "" and trace_out = ref "" in
  let smoke_mode = ref false and unit_cost = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of local-small, local-bulk, geo-send, shard-xs");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--scale", Arg.Set_float scale, "S scale every window / op count (default 1)");
      ("--trace", Arg.Set traced, " per-call timers, queue sampler, segment stamps, unit costs");
      ("--json", Arg.Set_string json, "FILE also write the result as JSON");
      ("--trace-out", Arg.Set_string trace_out, "FILE write per-op spans as Chrome trace-event JSON");
      ("--smoke", Arg.Set smoke_mode, " run the runtest gate");
      ("--unit-cost", Arg.Set_string unit_cost, "ROW (internal) time one unit-cost row");
    ]
  in
  let usage = "bpbench --workload NAME --seed N [options] | --smoke" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !unit_cost <> "" then begin
    match Unit_cost.measure !unit_cost with
    | Ok (med, iqr) -> Printf.printf "%s %s\n" (num med) (num iqr)
    | Error e ->
        prerr_endline e;
        exit 2
  end
  else if !smoke_mode then smoke ()
  else begin
    if !scale <= 0.0 || not (Float.is_finite !scale) then begin
      prerr_endline "bpbench: --scale must be positive";
      exit 2
    end;
    match
      run ~name:!workload ~seed:!seed ~scale:!scale ~setups:3 ~traced:!traced
        ~keep_spans:(!trace_out <> "")
    with
    | None ->
        Arg.usage spec usage;
        exit 2
    | Some (p, r) ->
        let r =
          if !traced then { r with W.metrics = r.W.metrics @ unit_cost_metrics () } else r
        in
        Printf.printf "# workload %s seed %d scale %s%s\n" !workload !seed (num !scale)
          (if !traced then " traced" else "");
        print_result r;
        if !json <> "" then
          write_json ~path:!json ~name:!workload ~seed:!seed ~scale:!scale ~traced:!traced r;
        if !trace_out <> "" then Probe.write_spans p ~path:!trace_out;
        if r.W.failed > 0 then exit 1
  end
