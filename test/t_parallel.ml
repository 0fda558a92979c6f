(* The domain pool (lib/parallel) and the parallel experiment harness.

   CI may run on a single core, so these tests assert scheduling
   semantics — index-ordered results, exception propagation, pool reuse,
   and bit-identical experiment output — not wall-clock speedups. *)

exception Boom of int

let test_pool_basics () =
  let pool = Bp_parallel.Pool.create ~jobs:3 in
  Alcotest.(check int) "jobs" 3 (Bp_parallel.Pool.jobs pool);
  Alcotest.(check (list int)) "empty batch" [] (Bp_parallel.Pool.run pool []);
  (* Consecutive batches on one pool, with different result types. *)
  let squares = Bp_parallel.Pool.run pool (List.init 8 (fun i () -> i * i)) in
  Alcotest.(check (list int)) "squares" [ 0; 1; 4; 9; 16; 25; 36; 49 ] squares;
  let strs =
    Bp_parallel.Pool.run pool (List.init 4 (fun i () -> string_of_int i))
  in
  Alcotest.(check (list string)) "strings" [ "0"; "1"; "2"; "3" ] strs;
  (* jobs:1 never spawns domains and runs inline: on the calling domain. *)
  let single = Bp_parallel.Pool.create ~jobs:1 in
  let self = Domain.self () in
  let inline =
    Bp_parallel.Pool.run single
      (List.init 3 (fun i () ->
           if Domain.self () <> self then Alcotest.fail "ran off the caller";
           -i))
  in
  Bp_parallel.Pool.shutdown single;
  Alcotest.(check (list int)) "jobs:1 inline" [ 0; -1; -2 ] inline;
  Bp_parallel.Pool.shutdown pool;
  (* Shutdown is idempotent, and a shut-down pool refuses work. *)
  Bp_parallel.Pool.shutdown pool;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool is shut down") (fun () ->
      ignore (Bp_parallel.Pool.run pool [ (fun () -> 0) ]))

(* A worker count beyond the runtime's domain limit fails create, and
   the domains spawned before the refusal are joined again: a later pool
   still starts. *)
let test_pool_create_over_limit () =
  (match Bp_parallel.Pool.create ~jobs:10_000 with
  | pool ->
      Bp_parallel.Pool.shutdown pool;
      Alcotest.fail "the runtime hosted 10000 domains"
  | exception Failure _ -> ());
  let pool = Bp_parallel.Pool.create ~jobs:3 in
  Alcotest.(check (list int)) "fresh pool runs" [ 0; 1; 2; 3 ]
    (Bp_parallel.Pool.run pool (List.init 4 (fun i () -> i)));
  Bp_parallel.Pool.shutdown pool

let test_pool_order () =
  (* Early tasks spin longer, so on a multicore box later indices finish
     first; the result list must still follow task index. *)
  let tasks =
    List.init 16 (fun i () ->
        let acc = ref 0 in
        for k = 1 to (16 - i) * 10_000 do
          acc := !acc + k
        done;
        ignore !acc;
        i)
  in
  let pool = Bp_parallel.Pool.create ~jobs:4 in
  let got = Bp_parallel.Pool.run pool tasks in
  Bp_parallel.Pool.shutdown pool;
  Alcotest.(check (list int)) "index order" (List.init 16 Fun.id) got

let test_pool_exception () =
  let pool = Bp_parallel.Pool.create ~jobs:3 in
  let tasks = List.init 8 (fun i () -> if i = 3 then raise (Boom i) else i) in
  (match Bp_parallel.Pool.run pool tasks with
  | _ -> Alcotest.fail "expected Boom from the failing task"
  | exception Boom 3 -> ());
  (* The pool survives a failed batch and runs the next one normally. *)
  let ok = Bp_parallel.Pool.run pool (List.init 5 (fun i () -> i + 100)) in
  Alcotest.(check (list int)) "pool reusable after failure"
    [ 100; 101; 102; 103; 104 ] ok;
  Bp_parallel.Pool.shutdown pool

(* The tentpole property: fanning an experiment's tasks over worker
   domains must not change a byte of its report — every sweep point is an
   isolated seeded simulation and results merge by task index. *)
let test_parallel_reports_identical () =
  let render_all reports =
    String.concat "" (List.map Bp_harness.Report.render reports)
  in
  let pool = Bp_parallel.Pool.create ~jobs:3 in
  List.iter
    (fun id ->
      match Bp_harness.Experiments.find id with
      | None -> Alcotest.failf "unknown experiment %s" id
      | Some e ->
          let seq = Bp_harness.Experiments.run e ~scale:0.1 in
          let par = Bp_harness.Experiments.run ~pool e ~scale:0.1 in
          Alcotest.(check string)
            (id ^ ": parallel output bit-identical to sequential")
            (render_all seq) (render_all par))
    [ "fig5"; "fig6"; "costs" ];
  Bp_parallel.Pool.shutdown pool

(* Two pool domains checksum the same buffers at once, through every
   CRC-32 kernel this CPU runs, each several times over; both must
   reproduce the sequential checksums. The C kernels keep no state and
   their tables are constants, so nothing is shared but the inputs. *)
let test_crc32_two_domains () =
  let open Bp_crypto in
  let inputs =
    List.init 32 (fun i ->
        Bytes.init (i * 4099 mod 70_000) (fun j -> Char.chr ((i * 7 + j) land 0xff)))
  in
  let checksum_all () =
    List.concat_map
      (fun k ->
        List.map
          (fun b -> Crc32.Kernel.update k Crc32.empty b ~off:0 ~len:(Bytes.length b))
          inputs)
      Crc32.Kernel.available
  in
  let sequential = checksum_all () in
  let task () = List.init 8 (fun _ -> checksum_all ()) in
  let pool = Bp_parallel.Pool.create ~jobs:2 in
  let results =
    Fun.protect
      ~finally:(fun () -> Bp_parallel.Pool.shutdown pool)
      (fun () -> Bp_parallel.Pool.run pool [ task; task ])
  in
  List.iteri
    (fun d rounds ->
      List.iteri
        (fun r crcs ->
          Alcotest.(check (list int32))
            (Printf.sprintf "domain task %d, round %d" d r)
            sequential crcs)
        rounds)
    results

let suite =
  [
    ( "parallel",
      [
        Alcotest.test_case "pool basics, reuse, shutdown" `Quick
          test_pool_basics;
        Alcotest.test_case "create over the domain limit cleans up" `Quick
          test_pool_create_over_limit;
        Alcotest.test_case "results follow task index" `Quick test_pool_order;
        Alcotest.test_case "exception propagates, pool survives" `Quick
          test_pool_exception;
        Alcotest.test_case "parallel run bit-identical to -j 1" `Quick
          test_parallel_reports_identical;
        Alcotest.test_case "two domains checksum at once" `Quick
          test_crc32_two_domains;
      ] );
  ]
