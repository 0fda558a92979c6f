(* The bplint static-analysis pass (tools/bplint) — fixture modules under
   tools/bplint/fixtures exercise each rule, and a final test scans the
   real tree and requires zero findings, so reintroducing a hazard
   (polymorphic compare on protocol state, a wall-clock read, a swallowed
   exception on a verification path, plan tasks sharing a ref, ...)
   fails `dune runtest` even before `dune build @lint` runs. *)

(* The test binary runs in [_build/default/test]; the .cmt artifacts live
   one level up, in the build context root. *)
let root () =
  match Sys.getenv_opt "BPLINT_ROOT" with
  | Some r -> r
  | None ->
      (* `dune runtest` runs tests in _build/default/test; `dune exec`
         runs them from the project root. Probe for the build context
         that holds the fixture artifacts. *)
      let cwd = Sys.getcwd () in
      let candidates =
        [ Filename.dirname cwd; Filename.concat cwd "_build/default"; cwd ]
      in
      let marker = "tools/bplint/fixtures/.bplint_fixtures.objs" in
      let found =
        List.find_opt
          (fun c -> Sys.file_exists (Filename.concat c marker))
          candidates
      in
      (match found with Some c -> c | None -> Filename.dirname cwd)

(* Linking [bplint_fixtures] into this binary is what guarantees dune has
   produced the fixture .cmt files before the test runs. *)
let fixture name =
  Filename.concat (root ())
    (Filename.concat "tools/bplint/fixtures/.bplint_fixtures.objs/byte"
       ("bplint_fixtures__" ^ name ^ ".cmt"))

let count rule diags =
  List.length (List.filter (fun (d : Lint.diagnostic) -> String.equal d.Lint.rule rule) diags)

let show diags = String.concat "\n" (List.map Lint.to_string diags)

let check_count ~msg rule expected diags =
  Alcotest.(check int) (Printf.sprintf "%s [%s]\n%s" msg rule (show diags)) expected
    (count rule diags)

let message_mem needle diags =
  List.exists
    (fun (d : Lint.diagnostic) ->
      let m = d.Lint.message and nl = String.length needle in
      let ml = String.length m in
      let rec at i = i + nl <= ml && (String.equal (String.sub m i nl) needle || at (i + 1)) in
      at 0)
    diags

let test_r1_polycmp () =
  let diags = Lint.lint_cmt ~rules:[ "R1-polycmp" ] (fixture "Fx_r1") in
  check_count ~msg:"poly compare at record type" "R1-polycmp" 4 diags;
  (* The two primitive uses (int =, int sort) must not be flagged. *)
  Alcotest.(check int) "total findings" 4 (List.length diags)

(* min/max at every type, int and float included: the int-only and the
   explicit float comparison beside them stay clean. *)
let test_r1_minmax () =
  let diags = Lint.lint_cmt ~rules:[ "R1-polycmp" ] (fixture "Fx_r1m") in
  check_count ~msg:"min/max at any type" "R1-polycmp" 3 diags;
  Alcotest.(check int) "total findings" 3 (List.length diags)

let test_r2_nondet () =
  let diags = Lint.lint_cmt ~rules:[ "R2-nondet" ] (fixture "Fx_r2") in
  check_count ~msg:"self_init + Sys.time + ~random:true" "R2-nondet" 3 diags

let test_r2_hiter () =
  let diags = Lint.lint_cmt ~rules:[ "R2-hiter" ] (fixture "Fx_r2") in
  (* The fold is flagged; the iter carries [@bplint.allow "R2-hiter"] and
     must be suppressed. *)
  check_count ~msg:"order-dependent fold" "R2-hiter" 1 diags

let test_r2_domain () =
  let diags = Lint.lint_cmt ~rules:[ "R2-domain" ] (fixture "Fx_r2") in
  (* Domain.spawn, Atomic.make and Mutex.create are flagged; the
     Condition.create carries [@bplint.allow "R2-domain"]. *)
  check_count ~msg:"Domain.spawn + Atomic.make + Mutex.create" "R2-domain" 3
    diags

let test_r3 () =
  let diags = Lint.lint_cmt ~rules:[ "R3-partial"; "R3-catchall" ] (fixture "Fx_r3") in
  check_count ~msg:"Option.get + List.hd" "R3-partial" 2 diags;
  (* The [with Failure _ ->] handler must not be flagged. *)
  check_count ~msg:"catch-all try" "R3-catchall" 1 diags

let test_r4 () =
  let diags = Lint.lint_cmt ~rules:[ "R4-print"; "R4-mli" ] (fixture "Fx_r4") in
  check_count ~msg:"print_endline + Printf.printf" "R4-print" 2 diags;
  check_count ~msg:"module has no .mli" "R4-mli" 1 diags

let test_r5 () =
  let diags = Lint.lint_cmt ~rules:[ "R5-rawverify" ] (fixture "Fx_r5") in
  (* The bare Signer.verify is flagged; Verify_cache.verify is
     sanctioned; the allow-attributed site is suppressed. *)
  check_count ~msg:"bare Signer.verify" "R5-rawverify" 1 diags;
  Alcotest.(check int) "total findings" 1 (List.length diags)

(* R6-planescape: the planted Exp_costs.costs_plan escape (tasks sharing
   one ref) is the one finding; state a task builds for itself, and a
   closure outside any plan item, stay clean. *)
let test_r6_planescape () =
  let diags, stats =
    Lint.lint_files ~rules:[ "R6-planescape" ] [ fixture "Fx_r6" ]
  in
  check_count ~msg:"planted costs_plan escape" "R6-planescape" 1 diags;
  Alcotest.(check int) "total findings" 1 (List.length diags);
  Alcotest.(check bool) "names the shared ref" true
    (message_mem "writes shared" diags);
  Alcotest.(check int) "both plan items inspected" 2 stats.Lint.plan_sites

(* R8-harnessglobal: every module-level allocation of mutable state is
   flagged (ref, Hashtbl, Array, Buffer, Atomic, a mutable record, a
   closure over a ref); the per-call good_* twins, immutable values and
   the allow-attributed sites (expression and binding form) stay clean.
   The rule covers lib/harness and lib/crypto. *)
let test_r8_harnessglobal () =
  let diags = Lint.lint_cmt ~rules:[ "R8-harnessglobal" ] (fixture "Fx_r8") in
  check_count ~msg:"six allocators + closure-captured ref" "R8-harnessglobal" 7
    diags;
  Alcotest.(check int) "total findings" 7 (List.length diags);
  Alcotest.(check bool) "mutable record is called out" true
    (message_mem "record with mutable fields" diags);
  let has rule source = List.mem rule (Lint.policy ~source) in
  Alcotest.(check bool) "harness gets R8" true
    (has "R8-harnessglobal" "lib/harness/runner.ml");
  Alcotest.(check bool) "crypto gets R8" true
    (has "R8-harnessglobal" "lib/crypto/verify_batch.ml");
  Alcotest.(check bool) "R8 is scoped to harness and crypto" false
    (has "R8-harnessglobal" "lib/pbft/replica.ml")

(* R9-external: the top-level and the nested external are flagged, the
   allow-attributed one is not; only lib/crypto/native.ml may declare
   one, matched on whole path segments. *)
let test_r9_external () =
  let diags = Lint.lint_cmt ~rules:[ "R9-external" ] (fixture "Fx_r9") in
  check_count ~msg:"top-level + nested external" "R9-external" 2 diags;
  Alcotest.(check int) "total findings" 2 (List.length diags);
  Alcotest.(check bool) "names the external" true
    (message_mem "external bad_nested" diags);
  let has rule source = List.mem rule (Lint.policy ~source) in
  Alcotest.(check bool) "native.ml may declare externals" false
    (has "R9-external" "lib/crypto/native.ml");
  Alcotest.(check bool) "nativex.ml may not" true
    (has "R9-external" "lib/crypto/nativex.ml");
  Alcotest.(check bool) "sha256.ml may not" true
    (has "R9-external" "lib/crypto/sha256.ml");
  Alcotest.(check bool) "rest of crypto may not" true
    (has "R9-external" "lib/crypto/crc32.ml");
  Alcotest.(check bool) "other lib dirs may not" true
    (has "R9-external" "lib/util/hex.ml");
  Alcotest.(check bool) "bench may not" true
    (has "R9-external" "bench/e2e/bpbench.ml");
  Alcotest.(check bool) "bin may not" true
    (has "R9-external" "bin/blockplane_cli.ml");
  Alcotest.(check bool) "tools may not" true
    (has "R9-external" "tools/bplint/main.ml")

(* R10-accept: the unjudged arm, the guarded arm and the one-case
   [verifier] are flagged; the allow-attributed arm and the verify of a
   module not shaped like App.S are not. The rule covers the directories
   of the user protocols and Unit_node.verifier. *)
let test_r10_accept () =
  let diags = Lint.lint_cmt ~rules:[ "R10-accept" ] (fixture "Fx_r10") in
  check_count ~msg:"two verify arms + verifier" "R10-accept" 3 diags;
  Alcotest.(check int) "total findings" 3 (List.length diags);
  let has rule source = List.mem rule (Lint.policy ~source) in
  Alcotest.(check bool) "core gets R10" true (has "R10-accept" "lib/core/unit_node.ml");
  Alcotest.(check bool) "apps get R10" true (has "R10-accept" "lib/apps/bank.ml");
  Alcotest.(check bool) "crypto verifiers are not apps" false
    (has "R10-accept" "lib/crypto/signer.ml")

(* R11-ledger: a Record.Comm pattern in an App.S-shaped verify is
   flagged, also inside an or-pattern; one in apply, in a verify of
   another shape or on another type's Comm is not. The rule covers
   lib/apps except Byzantize, the one ledger that judges sends. *)
let test_r11_ledger () =
  let diags = Lint.lint_cmt ~rules:[ "R11-ledger" ] (fixture "Fx_r11") in
  check_count ~msg:"two app verifies" "R11-ledger" 2 diags;
  Alcotest.(check int) "total findings" 2 (List.length diags);
  let has rule source = List.mem rule (Lint.policy ~source) in
  Alcotest.(check bool) "apps get R11" true (has "R11-ledger" "lib/apps/bank.ml");
  Alcotest.(check bool) "byzantize is the ledger" false
    (has "R11-ledger" "lib/apps/byzantize.ml");
  Alcotest.(check bool) "core is not an app" false
    (has "R11-ledger" "lib/core/unit_node.ml")

let test_clean_fixture () =
  let diags = Lint.lint_cmt ~rules:Lint.all_rules (fixture "Fx_clean") in
  Alcotest.(check int) (Printf.sprintf "clean module\n%s" (show diags)) 0
    (List.length diags)

(* The R2-domain exemption is anchored on whole path segments — a
   near-miss filename sharing a prefix must not inherit it — and covers
   lib/parallel alone. *)
let test_segment_matching () =
  Alcotest.(check bool) "exact file matches" true
    (Lint.path_matches ~pattern:"lib/crypto/verify_batch"
       "lib/crypto/verify_batch.ml");
  Alcotest.(check bool) "prefix near-miss does not match" false
    (Lint.path_matches ~pattern:"lib/crypto/verify_batch"
       "lib/crypto/verify_batchx.ml");
  Alcotest.(check bool) "substring inside a segment does not match" false
    (Lint.path_matches ~pattern:"crypto" "lib/mycrypto/foo.ml");
  Alcotest.(check bool) "segment run matches mid-path" true
    (Lint.path_matches ~pattern:"crypto/verify_batch"
       "lib/crypto/verify_batch.ml");
  let has rule source = List.mem rule (Lint.policy ~source) in
  Alcotest.(check bool) "verify_batch.ml is NOT R2-domain exempt" true
    (has "R2-domain" "lib/crypto/verify_batch.ml");
  Alcotest.(check bool) "verify_batchx.ml is NOT exempt" true
    (has "R2-domain" "lib/crypto/verify_batchx.ml");
  Alcotest.(check bool) "lib/parallelx is NOT exempt" true
    (has "R2-domain" "lib/parallelx/pool.ml")

let test_policy () =
  (* Consensus code gets the full rule set; generic lib code a subset;
     executables and tools a determinism/totality baseline; fixtures
     nothing. *)
  let has rule source = List.mem rule (Lint.policy ~source) in
  Alcotest.(check bool) "pbft gets R1" true (has "R1-polycmp" "lib/pbft/replica.ml");
  Alcotest.(check bool) "harness exempt from R1" false
    (has "R1-polycmp" "lib/harness/report.ml");
  Alcotest.(check bool) "cli exempt from R1" false
    (has "R1-polycmp" "lib/cli/bp_cli.ml");
  (* Both halves of R1 — min/max and the type-directed one — cover
     every lib directory but harness and cli; the real-tree scan below
     proves the tree is clean under them. *)
  List.iter
    (fun source ->
      Alcotest.(check bool) (source ^ " gets R1") true (has "R1-polycmp" source))
    [
      "lib/util/rng.ml";
      "lib/core/unit_node.ml";
      "lib/apps/bank.ml";
      "lib/storage/wal.ml";
      "lib/crypto/verify_batch.ml";
    ];
  Alcotest.(check bool) "all lib gets R2-nondet" true
    (has "R2-nondet" "lib/harness/report.ml");
  Alcotest.(check bool) "all lib gets R4-print" true
    (has "R4-print" "lib/util/tablefmt.ml");
  Alcotest.(check bool) "sim gets R2-domain" true
    (has "R2-domain" "lib/sim/engine.ml");
  Alcotest.(check bool) "pbft gets R2-domain" true
    (has "R2-domain" "lib/pbft/replica.ml");
  Alcotest.(check bool) "parallel exempt from R2-domain" false
    (has "R2-domain" "lib/parallel/pool.ml");
  Alcotest.(check bool) "verify_batch gets R2-domain" true
    (has "R2-domain" "lib/crypto/verify_batch.ml");
  Alcotest.(check bool) "rest of crypto still gets R2-domain" true
    (has "R2-domain" "lib/crypto/signer.ml");
  Alcotest.(check bool) "pbft gets R5-rawverify" true
    (has "R5-rawverify" "lib/pbft/replica.ml");
  Alcotest.(check bool) "core gets R5-rawverify" true
    (has "R5-rawverify" "lib/core/unit_node.ml");
  Alcotest.(check bool) "crypto exempt from R5-rawverify" false
    (has "R5-rawverify" "lib/crypto/verify_cache.ml");
  Alcotest.(check bool) "harness gets R6-planescape" true
    (has "R6-planescape" "lib/harness/exp_costs.ml");
  (* The former coverage gap: bench/bin/tools now carry a baseline. *)
  Alcotest.(check bool) "bench gets R2-nondet" true
    (has "R2-nondet" "bench/e2e/bpbench.ml");
  Alcotest.(check bool) "bin gets R3-partial" true
    (has "R3-partial" "bin/blockplane_cli.ml");
  Alcotest.(check bool) "bin has no .mli requirement" false
    (has "R4-mli" "bin/blockplane_cli.ml");
  Alcotest.(check bool) "tools modules need an .mli" true
    (has "R4-mli" "tools/bplint/lint.ml");
  Alcotest.(check bool) "tools main.ml exempt from R4-mli" false
    (has "R4-mli" "tools/bplint/main.ml");
  Alcotest.(check int) "lint fixtures get nothing" 0
    (List.length (Lint.policy ~source:"tools/bplint/fixtures/fx_r6.ml"))

(* The policy exemption, proven end-to-end on the fixture: the same .cmt
   full of multicore primitives is clean when linted under lib/parallel's
   rule set but flags under any lib/crypto module's, verify_batch's
   included. *)
let test_r2_domain_exemption_applies () =
  let lint_as source =
    Lint.lint_cmt ~rules:(Lint.policy ~source) (fixture "Fx_r2")
  in
  Alcotest.(check int) "verify_batch source: R2-domain findings remain" 3
    (count "R2-domain" (lint_as "lib/crypto/verify_batch.ml"));
  Alcotest.(check int) "other crypto source: R2-domain findings remain" 3
    (count "R2-domain" (lint_as "lib/crypto/signer.ml"));
  Alcotest.(check int) "parallel source: no R2-domain findings" 0
    (count "R2-domain" (lint_as "lib/parallel/pool.ml"))

(* The teeth of the suite: the real tree must be clean. Any regression —
   a reintroduced Option.get, a new module without an .mli, plan tasks
   sharing a ref — lands here as a test failure with
   file:line diagnostics. *)
let test_real_tree_clean () =
  let diags, stats = Lint.scan ~root:(root ()) in
  Alcotest.(check int)
    (Printf.sprintf "tree has findings:\n%s" (show diags))
    0 (List.length diags);
  (* The scan really did cover the tree, and R6-planescape reached every
     registered experiment's plan. *)
  Alcotest.(check bool) "scanned a real number of files" true
    (stats.Lint.files_scanned > 20);
  Alcotest.(check bool)
    (Printf.sprintf "R6 inspected %d Runner.Plan sites" stats.Lint.plan_sites)
    true
    (stats.Lint.plan_sites >= List.length Bp_harness.Experiments.all)

let suite =
  [
    ( "lint",
      [
        Alcotest.test_case "R1 polymorphic compare" `Quick test_r1_polycmp;
        Alcotest.test_case "R1 min/max at every type" `Quick test_r1_minmax;
        Alcotest.test_case "R2 nondeterminism" `Quick test_r2_nondet;
        Alcotest.test_case "R2 hashtbl iteration + allow attribute" `Quick test_r2_hiter;
        Alcotest.test_case "R2 multicore primitives confined" `Quick test_r2_domain;
        Alcotest.test_case "R3 partial functions and catch-alls" `Quick test_r3;
        Alcotest.test_case "R4 printing and missing mli" `Quick test_r4;
        Alcotest.test_case "R5 raw verify confined to crypto" `Quick test_r5;
        Alcotest.test_case "R6 plan tasks share no state" `Quick
          test_r6_planescape;
        Alcotest.test_case "R8 no module-level state in harness" `Quick
          test_r8_harnessglobal;
        Alcotest.test_case "R9 externals confined to native.ml" `Quick
          test_r9_external;
        Alcotest.test_case "R10 verifiers judge before accepting" `Quick
          test_r10_accept;
        Alcotest.test_case "R11 apps judge sends by the ledger" `Quick
          test_r11_ledger;
        Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
        Alcotest.test_case "segment-anchored path matching" `Quick
          test_segment_matching;
        Alcotest.test_case "per-directory policy" `Quick test_policy;
        Alcotest.test_case "R2-domain exemption is path-scoped" `Quick
          test_r2_domain_exemption_applies;
        Alcotest.test_case "real tree is clean" `Quick test_real_tree_clean;
      ] );
  ]
