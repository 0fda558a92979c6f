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

let pipeline =
  opt count 1 [ "pipeline" ] ~docv:"DEPTH"
    ~doc:
      "Consensus pipeline depth: how many PBFT slots each primary keeps in \
       flight concurrently. 1 (the default) is the stop-and-wait baseline \
       and reproduces the pre-pipeline tables byte-for-byte; deeper values \
       overlap successive three-phase rounds. The ablation-pipeline \
       experiment sweeps its own depths and modeled verification cores \
       regardless of this flag."

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

let shards =
  opt count 1 [ "shards" ] ~docv:"N"
    ~doc:
      "Keyspace shards for worlds that do not build their own shard map: \
       each shard is an independent Blockplane unit owning a slice of the \
       keyspace, with cross-shard transactions committed through the BFT \
       two-phase protocol. 1 (the default) reproduces the unsharded tables \
       byte-for-byte; the value is clamped to each world's participant \
       count. The ablation-shard experiment sweeps 1..16 regardless."

let batch_min_fill =
  opt (Arg.some count) None [ "batch-min-fill" ] ~docv:"N"
    ~doc:
      "Adaptive batch-cut fill target: a primary holds a non-empty batch \
       open until it has at least this many requests (or the \
       $(b,--batch-hold) timer fires). 1 (the seed behaviour) cuts on any \
       signal. Values above 1 require a positive $(b,--batch-hold); the \
       value is clamped to each world's batch size limit."

let batch_hold =
  opt (Arg.some non_negative) None [ "batch-hold" ] ~docv:"MS"
    ~doc:
      "Adaptive batch-cut hold timer in milliseconds: the longest a \
       non-empty batch below the fill target waits before being cut anyway. \
       Bounds the latency cost of $(b,--batch-min-fill)."

(* The pair is judged by the rule Config.make runs, on the hold as the
   simulator will see it: a sub-nanosecond hold rounds to zero and is
   rejected here rather than inside the first world. No batch_max bound:
   worlds clamp a knob min-fill to their own batch_max. *)
let batch_policy min_fill hold_ms =
  let hold = Option.map Bp_sim.Time.of_ms hold_ms in
  match
    Bp_pbft.Config.check_batch_policy ~batch_max:max_int
      ~batch_min_fill:(Option.value min_fill ~default:1)
      ~batch_hold:(Option.value hold ~default:Bp_sim.Time.zero)
  with
  | Ok () -> Ok (min_fill, hold)
  | Error msg -> Error ("--batch-min-fill/--batch-hold: " ^ msg)

let no_cache =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the per-node verification and digest memoization: every \
           node's cache and each replica's batch-digest memo are built with \
           zero capacity, so each signature check and content digest is \
           recomputed. Signing is unchanged (which \
           bytes a message signs never depends on a cache), so every \
           experiment table is bit-identical either way; only wall time \
           changes.")

let knobs =
  Term.term_result'
    (let+ pipeline and+ load_rate
     and+ load_shape and+ skew and+ shards and+ batch_min_fill
     and+ batch_hold and+ no_cache in
     Result.map
       (fun (batch_min_fill, batch_hold) ->
         {
           Knobs.pipeline;
           load_shape;
           load_rate;
           skew;
           shards;
           batch_min_fill;
           batch_hold;
           cache = not no_cache;
         })
       (batch_policy batch_min_fill batch_hold))

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
