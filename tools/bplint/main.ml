(* bplint CLI.

   Modes:
     main.exe --root DIR [--allowlist FILE] [--baseline FILE]
              [--update-baseline] [--format text|json] [--stats]
       Scan DIR's lib/bench/bin/tools for every .cmt dune produced, apply
       the repo policy (Lint.policy) per source file, print findings,
       exit 1 if any. With --baseline, findings listed in the baseline
       file are subtracted first, so CI fails only on new ones;
       --update-baseline rewrites the file from the current findings
       instead of failing.

     main.exe --rules R1-polycmp,R6-planescape [--allowlist FILE]
              [--format text|json] a.cmt b.cmt
       Lint explicit .cmt files with an explicit rule set (used by tests
       and for one-off investigation).

   --stats prints files_scanned, plan_sites (the Runner.Plan items
   R6-planescape inspected), wall time, finding counts and per-rule hits. *)

let usage () =
  prerr_endline
    ("usage: bplint --root DIR [--allowlist FILE] [--baseline FILE]\n\
     \              [--update-baseline] [--format text|json] [--stats]\n\
     \       bplint --rules R1,R2,... [--allowlist FILE] [--format text|json] \
      FILE.cmt...\n\
      rules: "
    ^ String.concat " " Lint.all_rules
    ^ "\n\
       --stats also counts plan_sites, the Runner.Plan items R6-planescape \
       checked");
  exit 2

let () =
  let root = ref None in
  let allowlist_file = ref None in
  let baseline_file = ref None in
  let update_baseline = ref false in
  let json = ref false in
  let stats_mode = ref false in
  let rules = ref None in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--root" :: dir :: rest ->
        root := Some dir;
        parse rest
    | "--allowlist" :: file :: rest ->
        allowlist_file := Some file;
        parse rest
    | "--baseline" :: file :: rest ->
        baseline_file := Some file;
        parse rest
    | "--update-baseline" :: rest ->
        update_baseline := true;
        parse rest
    | "--format" :: fmt :: rest ->
        (match fmt with
        | "json" -> json := true
        | "text" -> json := false
        | _ -> usage ());
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
  let allowlist =
    match !allowlist_file with
    | None -> Lint.empty_allowlist
    | Some f -> Lint.load_allowlist f
  in
  let t0 = (Unix.gettimeofday () [@bplint.allow "R2-nondet"]) in
  let diags, stats =
    match (!root, !rules, List.rev !files) with
    | Some root, None, [] -> Lint.scan ~allowlist ~root ()
    | None, Some rules, (_ :: _ as files) ->
        Lint.lint_files ~allowlist ~rules files
    | _ -> usage ()
  in
  let wall = (Unix.gettimeofday () [@bplint.allow "R2-nondet"]) -. t0 in
  if !update_baseline then begin
    match !baseline_file with
    | None ->
        prerr_endline "bplint: --update-baseline requires --baseline FILE";
        exit 2
    | Some f ->
        let oc = open_out f in
        List.iter
          (fun line -> output_string oc (line ^ "\n"))
          (Lint_diag.baseline_lines diags);
        close_out oc;
        Printf.eprintf "bplint: wrote %d baseline entr%s to %s\n"
          (List.length diags)
          (if List.length diags = 1 then "y" else "ies")
          f
  end
  else begin
    let fresh =
      match !baseline_file with
      | None -> diags
      | Some f -> Lint_diag.filter_baseline (Lint_diag.load_baseline f) diags
    in
    if !json then print_endline (Lint_diag.findings_json fresh)
    else List.iter (fun d -> prerr_endline (Lint.to_string d)) fresh;
    if !stats_mode then begin
      Printf.printf "bplint stats: files_scanned=%d plan_sites=%d \
                     wall_s=%.3f findings=%d baselined=%d\n"
        stats.Lint.files_scanned stats.Lint.plan_sites wall (List.length fresh)
        (List.length diags - List.length fresh);
      List.iter
        (fun (rule, n) -> Printf.printf "bplint stats: rule %s hits=%d\n" rule n)
        stats.Lint.rule_hits
    end;
    if fresh <> [] then begin
      Printf.eprintf "bplint: %d %sfinding(s)\n" (List.length fresh)
        (match !baseline_file with Some _ -> "new " | None -> "");
      exit 1
    end
  end
