(* Shared diagnostic machinery for the bplint passes: the finding record,
   text/JSON rendering, the file allowlist, and the CI baseline. Split out
   of [Lint] so the interprocedural passes ([Lint_graph]/[Lint_interproc])
   can report findings without a dependency cycle. *)

type diagnostic = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let to_string d =
  Printf.sprintf "%s:%d:%d: [%s] %s" d.file d.line d.col d.rule d.message

let compare_diag a b =
  match String.compare a.file b.file with
  | 0 -> Stdlib.compare (a.line, a.col, a.rule) (b.line, b.col, b.rule)
  | c -> c

(* ---------- JSON rendering (schema bplint/1) ---------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_string s = "\"" ^ json_escape s ^ "\""

let diag_to_json d =
  Printf.sprintf "{\"rule\":%s,\"file\":%s,\"line\":%d,\"col\":%d,\"message\":%s}"
    (json_string d.rule) (json_string d.file) d.line d.col
    (json_string d.message)

let findings_json diags =
  "[" ^ String.concat "," (List.map diag_to_json diags) ^ "]"

(* ---------- allowlist ---------- *)

type allowlist = (string * string) list (* rule prefix, path pattern *)

let empty_allowlist = []

(* Path patterns are anchored on '/'-separated segments: the pattern's
   segments must match a contiguous run of the file's segments exactly,
   except that the final pattern segment may also match a segment with
   its extension stripped ("verify_batch" matches ".../verify_batch.ml").
   Substrings inside a segment never match: a "verify_batch" entry does
   not excuse "verify_batchx.ml". *)
let path_matches ~pattern file =
  let psegs =
    List.filter (fun s -> s <> "") (String.split_on_char '/' pattern)
  in
  let fsegs = String.split_on_char '/' file in
  if psegs = [] then false
  else begin
    let rec run ps fs =
      match (ps, fs) with
      | [], _ -> true
      | [ p ], f :: _ ->
          String.equal p f || String.equal p (Filename.remove_extension f)
      | p :: ps', f :: fs' -> String.equal p f && run ps' fs'
      | _ :: _, [] -> false
    in
    let rec scan fs =
      run psegs fs || match fs with [] -> false | _ :: tl -> scan tl
    in
    scan fsegs
  end

let allowlist_of_lines lines =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if String.length line = 0 || line.[0] = '#' then None
      else
        match String.split_on_char ' ' line with
        | rule :: path :: _ when path <> "" -> Some (rule, path)
        | _ -> None)
    lines

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

let load_allowlist path =
  if not (Sys.file_exists path) then [] else allowlist_of_lines (read_lines path)

let rule_matches ~prefix rule = String.starts_with ~prefix rule

let allowlisted allowlist ~rule ~file =
  List.exists
    (fun (p, pattern) -> rule_matches ~prefix:p rule && path_matches ~pattern file)
    allowlist

(* ---------- baseline ---------- *)

(* A baseline entry identifies a tolerated pre-existing finding by
   (rule, file, message) — line/col are deliberately ignored so the
   baseline survives unrelated edits that shift code around. CI filters
   baselined findings out and fails only on what is left: new findings. *)

type baseline = (string * string * string) list

let empty_baseline = []

let baseline_of_lines lines =
  List.filter_map
    (fun line ->
      if String.length (String.trim line) = 0 || (String.trim line).[0] = '#'
      then None
      else
        match String.split_on_char '\t' line with
        | [ rule; file; message ] -> Some (rule, file, message)
        | _ -> None)
    lines

let load_baseline path =
  if not (Sys.file_exists path) then []
  else baseline_of_lines (read_lines path)

let baseline_header =
  [
    "# bplint baseline: tolerated pre-existing findings, one per line as";
    "# RULE<TAB>FILE<TAB>MESSAGE (line/col intentionally omitted so the";
    "# baseline survives unrelated code motion). CI subtracts these and";
    "# fails only on findings not listed here. Regenerate with";
    "#   bplint --root . --allowlist tools/bplint/bplint.allow \\";
    "#          --baseline tools/bplint/lint-baseline --update-baseline";
    "# Keep this file empty: fix findings or allowlist them with a";
    "# justification instead of baselining new debt.";
  ]

let baseline_lines diags =
  baseline_header
  @ List.map (fun d -> Printf.sprintf "%s\t%s\t%s" d.rule d.file d.message) diags

let filter_baseline baseline diags =
  List.filter
    (fun d ->
      not
        (List.exists
           (fun (rule, file, message) ->
             String.equal rule d.rule && String.equal file d.file
             && String.equal message d.message)
           baseline))
    diags

(* ---------- attribute helpers ---------- *)

let allows_of_attributes (attrs : Parsetree.attributes) =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if not (String.equal a.Parsetree.attr_name.Location.txt "bplint.allow")
      then []
      else
        match a.Parsetree.attr_payload with
        | Parsetree.PStr
            [
              {
                Parsetree.pstr_desc =
                  Parsetree.Pstr_eval
                    ( {
                        Parsetree.pexp_desc =
                          Parsetree.Pexp_constant
                            (Parsetree.Pconst_string (s, _, _));
                        _;
                      },
                      _ );
                _;
              };
            ] ->
            String.split_on_char ' ' s
            |> List.concat_map (String.split_on_char ',')
            |> List.filter (fun r -> r <> "")
        | _ -> [])
    attrs
