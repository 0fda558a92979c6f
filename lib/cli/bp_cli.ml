open Cmdliner
open Cmdliner.Term.Syntax
module Knobs = Bp_harness.Knobs

type t = { knobs : Knobs.t; scale : float; jobs : int }

(* A converter narrowed to the values [ok] accepts; the error names the
   expectation, and Cmdliner prefixes it with the flag. *)
let checked conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let count = checked Arg.int ~expected:"an integer >= 1" (fun n -> n >= 1)

let positive =
  checked Arg.float ~expected:"a finite number > 0" (fun x ->
      Float.is_finite x && x > 0.0)

let non_negative =
  checked Arg.float ~expected:"a finite number >= 0" (fun x ->
      Float.is_finite x && x >= 0.0)

let opt c default names ~docv ~doc =
  Arg.(value & opt c default & info names ~docv ~doc)

let load_rate =
  opt (Arg.some positive) None [ "load-rate" ] ~docv:"RATE"
    ~doc:
      "Probe a single open-loop offered rate (requests/s) instead of the \
       saturation sweep's built-in rate list. Only Loadgen-driven \
       experiments (ablation-saturation) consult it."

let load_shape =
  opt
    (Arg.enum
       [ ("poisson", `Poisson); ("bursty", `Bursty); ("diurnal", `Diurnal) ])
    `Poisson [ "load-trace" ] ~docv:"SHAPE"
    ~doc:
      "Arrival-process shape for Loadgen-driven experiments: $(b,poisson) \
       (the default), $(b,bursty) (Markov-modulated on/off phases) or \
       $(b,diurnal) (a compressed day-curve rate trace). All shapes offer \
       the same long-run rate."

let skew =
  opt non_negative 0.99 [ "skew" ] ~docv:"S"
    ~doc:
      "Zipf exponent over the modeled client population for Loadgen-driven \
       experiments: 0 is uniform, 0.99 (the default) the classic YCSB skew."

let knobs =
  let+ load_rate and+ load_shape and+ skew in
  { Knobs.load_shape; load_rate; skew }

let scale =
  Arg.(
    value
    & opt positive 1.0
    & info [ "s"; "scale" ] ~docv:"SCALE"
        ~env:(Cmd.Env.info "BP_BENCH_SCALE")
        ~doc:
          "Workload scale factor: 1.0 reproduces the full configured \
           workload, smaller values shrink batch counts proportionally for \
           quick runs.")

let jobs =
  opt count (Bp_parallel.Pool.default_jobs ()) [ "j"; "jobs" ] ~docv:"N"
    ~doc:
      "Number of domains to fan independent simulation tasks across, at \
       most one per task. Results are bit-identical at any job count; only \
       wall time changes. Defaults to the number of cores; 1 runs \
       everything inline."

let term =
  let+ knobs and+ scale and+ jobs in
  { knobs; scale; jobs }
