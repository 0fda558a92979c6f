(* The run-wide flag term of blockplane-cli (lib/cli): every flag maps
   onto the knobs record, and every bad value is a command-line error
   (Cmdliner's `Parse or `Term), never an exception escaping from a
   world built later. *)

open Cmdliner
module Knobs = Bp_harness.Knobs

let eval_term ?(env = []) term args =
  let err = Buffer.create 256 in
  let errf = Format.formatter_of_buffer err in
  let result =
    Cmd.eval_value
      ~help:(Format.formatter_of_buffer (Buffer.create 256))
      ~err:errf
      ~env:(fun var -> List.assoc_opt var env)
      ~argv:(Array.of_list ("t" :: args))
      (Cmd.v (Cmd.info "t") term)
  in
  Format.pp_print_flush errf ();
  (result, Buffer.contents err)

let eval ?env args = fst (eval_term ?env Bp_cli.term args)

let parsed ?env args =
  match eval ?env args with
  | Ok (`Ok t) -> t
  | Ok (`Help | `Version) ->
      Alcotest.failf "%s: help/version" (String.concat " " args)
  | Error _ -> Alcotest.failf "%s: rejected" (String.concat " " args)

let k = Knobs.default

let test_valid_flags () =
  let check args expected =
    Alcotest.(check bool)
      (String.concat " " args) true
      ((parsed args).Bp_cli.knobs = expected)
  in
  check [] k;
  check [ "--pipeline"; "4" ] { k with pipeline = 4 };
  check [ "--load-rate"; "20000" ] { k with load_rate = Some 20_000.0 };
  check [ "--load-trace"; "bursty" ] { k with load_shape = `Bursty };
  check [ "--load-trace"; "diurnal" ] { k with load_shape = `Diurnal };
  check [ "--skew"; "0" ] { k with skew = 0.0 };
  check [ "--no-cache" ] { k with cache = false };
  check [ "--shards"; "4" ] { k with shards = 4 };
  check [ "--batch-min-fill"; "1" ] { k with batch_min_fill = Some 1 };
  check [ "--batch-hold"; "0.25" ]
    { k with batch_hold = Some (Bp_sim.Time.of_ms 0.25) };
  check
    [ "--batch-min-fill"; "16"; "--batch-hold"; "0.25" ]
    {
      k with
      batch_min_fill = Some 16;
      batch_hold = Some (Bp_sim.Time.of_ms 0.25);
    };
  let t = parsed [] in
  Alcotest.(check (float 0.0)) "default scale" 1.0 t.Bp_cli.scale;
  Alcotest.(check bool) "cache on by default" true t.Bp_cli.knobs.cache;
  Alcotest.(check (float 0.0)) "--scale" 0.2 (parsed [ "--scale"; "0.2" ]).scale;
  Alcotest.(check (float 0.0)) "-s" 0.2 (parsed [ "-s"; "0.2" ]).scale;
  Alcotest.(check (float 0.0)) "BP_BENCH_SCALE fallback" 0.3
    (parsed ~env:[ ("BP_BENCH_SCALE", "0.3") ] []).scale;
  Alcotest.(check (float 0.0)) "--scale wins over BP_BENCH_SCALE" 0.2
    (parsed ~env:[ ("BP_BENCH_SCALE", "0.3") ] [ "--scale"; "0.2" ]).scale;
  Alcotest.(check int) "-j" 3 (parsed [ "-j"; "3" ]).jobs;
  Alcotest.(check int) "--jobs" 2 (parsed [ "--jobs"; "2" ]).jobs

let test_bad_values () =
  let rejected ?env args =
    let name =
      String.concat " "
        (List.map (fun (var, v) -> var ^ "=" ^ v) (Option.value env ~default:[])
        @ args)
    in
    match eval ?env args with
    | Error (`Parse | `Term) -> ()
    | Error `Exn -> Alcotest.failf "%s: exception escaped" name
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  rejected [ "--skew"; "inf" ];
  rejected [ "--skew"; "-1" ];
  rejected [ "--load-rate"; "nan" ];
  rejected [ "--load-rate"; "inf" ];
  rejected [ "--load-rate"; "0" ];
  rejected [ "--batch-min-fill"; "16" ];
  rejected [ "--batch-min-fill"; "16"; "--batch-hold"; "0" ];
  rejected [ "--batch-min-fill"; "16"; "--batch-hold"; "0.0000001" ];
  rejected [ "--batch-min-fill"; "0" ];
  rejected [ "--batch-hold"; "nan" ];
  rejected [ "--batch-hold"; "-1" ];
  rejected [ "--pipeline"; "0" ];
  (* Removed flags: a script that still passes one fails loudly. *)
  rejected [ "--verify-jobs"; "2" ];
  rejected [ "--cluster-send"; "on" ];
  rejected [ "--shards"; "0" ];
  rejected [ "--jobs"; "0" ];
  rejected [ "--load-trace"; "square" ];
  rejected [ "--scale"; "inf" ];
  rejected [ "--scale"; "0" ];
  rejected ~env:[ ("BP_BENCH_SCALE", "abc") ] [];
  rejected ~env:[ ("BP_BENCH_SCALE", "nan") ] []

(* Any count >= 1 is a valid [--jobs]: Pool.run caps it at the task
   count, so 10000 runs table2's four tasks on four domains (three
   helpers) and renders the bytes of [-j 1]. *)
let test_huge_jobs_count () =
  let t = parsed [ "--jobs"; "10000"; "--scale"; "0.05" ] in
  Alcotest.(check int) "--jobs parsed" 10_000 t.Bp_cli.jobs;
  let render jobs =
    String.concat ""
      (List.map Bp_harness.Report.render
         (Bp_harness.Experiments.run ~jobs
            (Option.get (Bp_harness.Experiments.find "table2"))
            ~scale:t.Bp_cli.scale))
  in
  Alcotest.(check string) "table2 bytes" (render 1) (render t.Bp_cli.jobs)

(* [--no-cache] is a knob value, not a process mode: after parsing it,
   a default world in the same process still memoizes — its nodes'
   caches record verify hits. *)
let test_no_cache_does_not_leak () =
  ignore (parsed [ "--no-cache"; "-j"; "1" ]);
  let w = Bp_harness.Runner.fresh_world ~n_participants:1 () in
  let api = Blockplane.Deployment.api w.Bp_harness.Runner.dep 0 in
  for i = 1 to 4 do
    Blockplane.Api.log_commit api (Printf.sprintf "op-%d" i) ~on_done:ignore
  done;
  Bp_sim.Engine.run ~until:(Bp_sim.Time.of_sec 1.0) w.Bp_harness.Runner.engine;
  let hits =
    Array.fold_left
      (fun acc node ->
        acc
        + (Bp_crypto.Verify_cache.instance_counters (Blockplane.Unit_node.vcache node))
            .Bp_crypto.Verify_cache.verify_hits)
      0
      (Blockplane.Deployment.nodes_of w.Bp_harness.Runner.dep 0)
  in
  Alcotest.(check bool) "default world's node caches hit" true (hits > 0)

let suite =
  [
    ( "cli",
      [
        Alcotest.test_case "one valid argv per flag" `Quick test_valid_flags;
        Alcotest.test_case "bad values are flag errors" `Quick test_bad_values;
        Alcotest.test_case "--jobs 10000 renders table2 like -j 1" `Quick
          test_huge_jobs_count;
        Alcotest.test_case "--no-cache leaves later worlds cached" `Quick
          test_no_cache_does_not_leak;
      ] );
  ]
