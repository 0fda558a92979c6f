(* bplint CLI.

   Modes:
     main.exe --root DIR [--stats]
       Scan DIR's lib/bench/bin/tools for every .cmt dune produced, apply
       the repo policy (Lint.policy) per source file, print findings,
       exit 1 if any.

     main.exe --rules R1-polycmp,R6-planescape a.cmt b.cmt
       Lint explicit .cmt files with an explicit rule set (used by tests
       and for one-off investigation).

   --stats prints files_scanned, plan_sites (the Runner.Plan items
   R6-planescape inspected), wall time, finding counts and per-rule hits. *)

let usage () =
  prerr_endline
    ("usage: bplint --root DIR [--stats]\n\
     \       bplint --rules R1,R2,... [--stats] FILE.cmt...\n\
      rules: "
    ^ String.concat " " Lint.all_rules
    ^ "\n\
       --stats also counts plan_sites, the Runner.Plan items R6-planescape \
       checked");
  exit 2

let () =
  let root = ref None in
  let stats_mode = ref false in
  let rules = ref None in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--root" :: dir :: rest ->
        root := Some dir;
        parse rest
    | "--stats" :: rest ->
        stats_mode := true;
        parse rest
    | "--rules" :: spec :: rest ->
        rules := Some (String.split_on_char ',' spec);
        parse rest
    | ("--help" | "-help") :: _ -> usage ()
    | arg :: rest ->
        if String.length arg > 0 && arg.[0] = '-' then usage ();
        files := arg :: !files;
        parse rest
  in
  (match Array.to_list Sys.argv with [] -> () | _self :: args -> parse args);
  let t0 = (Unix.gettimeofday () [@bplint.allow "R2-nondet"]) in
  let diags, stats =
    match (!root, !rules, List.rev !files) with
    | Some root, None, [] -> Lint.scan ~root
    | None, Some rules, (_ :: _ as files) -> Lint.lint_files ~rules files
    | _ -> usage ()
  in
  let wall = (Unix.gettimeofday () [@bplint.allow "R2-nondet"]) -. t0 in
  List.iter (fun d -> prerr_endline (Lint.to_string d)) diags;
  if !stats_mode then begin
    Printf.printf "bplint stats: files_scanned=%d plan_sites=%d wall_s=%.3f \
                   findings=%d\n"
      stats.Lint.files_scanned stats.Lint.plan_sites wall (List.length diags);
    List.iter
      (fun (rule, n) -> Printf.printf "bplint stats: rule %s hits=%d\n" rule n)
      stats.Lint.rule_hits
  end;
  if diags <> [] then begin
    Printf.eprintf "bplint: %d finding(s)\n" (List.length diags);
    exit 1
  end
