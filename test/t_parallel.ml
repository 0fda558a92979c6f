(* Pool.run (lib/parallel) and the parallel experiment harness.

   CI may run on a single core, so these tests assert scheduling
   semantics — index-ordered results, helper counts, exception
   propagation, reuse, and bit-identical experiment output — not
   wall-clock speedups. *)

exception Boom of int

let run = Bp_parallel.Pool.run

(* Counts every [Domain.spawn] in the process: a domain-local key with
   [split_from_parent] has its split function called once per spawn, on
   the spawning domain. *)
let spawned = Atomic.make 0

let _spawn_counter : unit Domain.DLS.key =
  Domain.DLS.new_key ~split_from_parent:(fun () -> Atomic.incr spawned) ignore

let helpers_spawned f =
  let before = Atomic.get spawned in
  let v = f () in
  (v, Atomic.get spawned - before)

let test_pool_basics () =
  let caller = Domain.self () in
  let empty, n = helpers_spawned (fun () -> run ~jobs:3 []) in
  Alcotest.(check (list int)) "empty task list" [] empty;
  Alcotest.(check int) "empty: no helper" 0 n;
  (* Consecutive runs, with different result types. *)
  let squares, n =
    helpers_spawned (fun () -> run ~jobs:3 (List.init 8 (fun i () -> i * i)))
  in
  Alcotest.(check (list int)) "squares" [ 0; 1; 4; 9; 16; 25; 36; 49 ] squares;
  Alcotest.(check int) "jobs:3 spawns 2 helpers" 2 n;
  Alcotest.(check (list string)) "strings" [ "0"; "1"; "2"; "3" ]
    (run ~jobs:3 (List.init 4 (fun i () -> string_of_int i)));
  (* jobs:1, and a single task, run inline on the calling domain. *)
  let on_caller i () =
    if Domain.self () <> caller then Alcotest.fail "ran off the caller";
    -i
  in
  let inline, n =
    helpers_spawned (fun () -> run ~jobs:1 (List.init 3 on_caller))
  in
  Alcotest.(check (list int)) "jobs:1 inline" [ 0; -1; -2 ] inline;
  Alcotest.(check int) "jobs:1 spawns nothing" 0 n;
  let single, n = helpers_spawned (fun () -> run ~jobs:4 [ on_caller 7 ]) in
  Alcotest.(check (list int)) "one task inline" [ -7 ] single;
  Alcotest.(check int) "one task spawns nothing" 0 n;
  (* More jobs than tasks: one domain per task, the caller included.
     Every helper that ran a task has exited once run returns. *)
  let exited = Atomic.make 0 in
  let task i () =
    let self = Domain.self () in
    if self <> caller then Domain.at_exit (fun () -> Atomic.incr exited);
    (i, self)
  in
  let got, n = helpers_spawned (fun () -> run ~jobs:64 (List.init 3 task)) in
  Alcotest.(check (list int)) "jobs > tasks" [ 0; 1; 2 ] (List.map fst got);
  Alcotest.(check int) "jobs:64 over 3 tasks spawns 2 helpers" 2 n;
  Alcotest.(check int) "helpers exited before run returns"
    (List.length (List.filter (fun (_, d) -> d <> caller) got))
    (Atomic.get exited)

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
  Alcotest.(check (list int)) "index order" (List.init 16 Fun.id)
    (run ~jobs:4 tasks)

(* Two tasks fail, the higher index first in time: task 0 waits (for
   at most 10 s of CPU) until task 1 has raised, so the two run on
   different domains. The lower index is re-raised on every round, and
   the next run is unaffected. *)
let test_pool_exception () =
  for round = 1 to 20 do
    let one_failed = Atomic.make false in
    let tasks =
      [
        (fun () ->
          let deadline = Sys.time () +. 10.0 in
          while (not (Atomic.get one_failed)) && Sys.time () < deadline do
            Domain.cpu_relax ()
          done;
          raise (Boom 0));
        (fun () ->
          Atomic.set one_failed true;
          raise (Boom 1));
        (fun () -> 2);
      ]
    in
    match run ~jobs:2 tasks with
    | _ -> Alcotest.failf "round %d: no exception" round
    | exception Boom i ->
        Alcotest.(check int) (Printf.sprintf "round %d: lowest index" round) 0 i
  done;
  Alcotest.(check (list int)) "a later run works" [ 100; 101; 102; 103; 104 ]
    (run ~jobs:3 (List.init 5 (fun i () -> i + 100)))

(* The tentpole property: fanning an experiment's tasks over worker
   domains must not change a byte of its report — every sweep point is an
   isolated seeded simulation and results merge by task index. *)
let test_parallel_reports_identical () =
  let render_all reports =
    String.concat "" (List.map Bp_harness.Report.render reports)
  in
  List.iter
    (fun id ->
      match Bp_harness.Experiments.find id with
      | None -> Alcotest.failf "unknown experiment %s" id
      | Some e ->
          let seq = Bp_harness.Experiments.run e ~scale:0.1 in
          let par = Bp_harness.Experiments.run ~jobs:3 e ~scale:0.1 in
          Alcotest.(check string)
            (id ^ ": parallel output bit-identical to sequential")
            (render_all seq) (render_all par))
    [ "fig5"; "fig6"; "costs" ]

(* Two domains checksum the same buffers at once, each several times
   over; both must reproduce the sequential checksums. The checksum keeps
   no state and its table is an immutable string, so nothing is shared
   but the inputs and that table. *)
let test_crc32_two_domains () =
  let open Bp_crypto in
  let inputs =
    List.init 32 (fun i ->
        Bytes.init (i * 4099 mod 70_000) (fun j -> Char.chr ((i * 7 + j) land 0xff)))
  in
  let checksum_all () =
    List.map (fun b -> Crc32.bytes b ~off:0 ~len:(Bytes.length b)) inputs
  in
  let sequential = checksum_all () in
  let task () = List.init 8 (fun _ -> checksum_all ()) in
  let results = run ~jobs:2 [ task; task ] in
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
        Alcotest.test_case "results follow task index" `Quick test_pool_order;
        Alcotest.test_case "exception propagates, pool survives" `Quick
          test_pool_exception;
        Alcotest.test_case "parallel run bit-identical to -j 1" `Quick
          test_parallel_reports_identical;
        Alcotest.test_case "two domains checksum at once" `Quick
          test_crc32_two_domains;
      ] );
  ]
