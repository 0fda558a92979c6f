(* Command-line entry point: run any of the paper's experiments. The
   run-wide flags (the knobs, --no-cache among them, plus --scale and
   --jobs) come from the shared term in lib/cli. *)

open Cmdliner

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let run_experiments (common : Bp_cli.t) verbose experiments =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning);
  Bp_cli.with_pool common (fun pool ->
      List.iter
        (fun e ->
          List.iter
            (fun r -> print_string (Bp_harness.Report.render r))
            (Bp_harness.Experiments.run ?pool ~knobs:common.knobs e
               ~scale:common.scale))
        experiments)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-8s %s\n" e.Bp_harness.Experiments.id
          e.Bp_harness.Experiments.title)
      Bp_harness.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments")
    Term.(const run $ const ())

let run_cmd =
  let ids =
    List.map (fun e -> e.Bp_harness.Experiments.id) Bp_harness.Experiments.all
  in
  let experiments =
    Arg.(
      non_empty
      & pos_all (enum (List.map (fun id -> (id, id)) ids)) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiment ids (see `list`), run in the order given.")
  in
  let run common verbose ids =
    run_experiments common verbose
      (List.filter_map Bp_harness.Experiments.find ids)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run experiments and print their paper-vs-measured tables")
    Term.(term_result' (const run $ Bp_cli.term $ verbose_arg $ experiments))

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Run every table and figure of the evaluation")
    Term.(
      term_result'
        (const run_experiments $ Bp_cli.term $ verbose_arg
        $ const Bp_harness.Experiments.all))

let () =
  let info =
    Cmd.info "blockplane-cli" ~version:"0.1.0"
      ~doc:"Blockplane (ICDE 2019) reproduction — experiment driver"
  in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; all_cmd ]))
