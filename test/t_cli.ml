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
  check [ "--load-rate"; "20000" ] { k with load_rate = Some 20_000.0 };
  check [ "--load-trace"; "bursty" ] { k with load_shape = `Bursty };
  check [ "--load-trace"; "diurnal" ] { k with load_shape = `Diurnal };
  check [ "--skew"; "0" ] { k with skew = 0.0 };
  let t = parsed [] in
  Alcotest.(check (float 0.0)) "default scale" 1.0 t.Bp_cli.scale;
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
  (* Removed flags: a script that still passes one fails loudly. *)
  rejected [ "--verify-jobs"; "2" ];
  rejected [ "--cluster-send"; "on" ];
  rejected [ "--pipeline"; "4" ];
  rejected [ "--shards"; "4" ];
  rejected [ "--no-cache" ];
  rejected [ "--batch-min-fill"; "16" ];
  rejected [ "--batch-hold"; "0.25" ];
  rejected [ "--batch-min-fill"; "16"; "--batch-hold"; "0.25" ];
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

let suite =
  [
    ( "cli",
      [
        Alcotest.test_case "one valid argv per flag" `Quick test_valid_flags;
        Alcotest.test_case "bad values are flag errors" `Quick test_bad_values;
        Alcotest.test_case "--jobs 10000 renders table2 like -j 1" `Quick
          test_huge_jobs_count;
      ] );
  ]
