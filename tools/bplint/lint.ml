type diagnostic = Lint_diag.diagnostic = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let all_rules =
  [
    "R1-polycmp";
    "R2-nondet";
    "R2-hiter";
    "R2-domain";
    "R3-partial";
    "R3-catchall";
    "R4-print";
    "R4-mli";
    "R5-rawverify";
    "R6-domainescape";
    "R7-parpure";
    "R8-harnessglobal";
    "R9-external";
  ]

let to_string = Lint_diag.to_string

(* ---------- allowlist (Lint_diag: segment-anchored path matching) ---------- *)

type allowlist = Lint_diag.allowlist

let empty_allowlist = Lint_diag.empty_allowlist
let allowlist_of_lines = Lint_diag.allowlist_of_lines
let load_allowlist = Lint_diag.load_allowlist
let allowlisted = Lint_diag.allowlisted
let rule_matches ~prefix rule = String.starts_with ~prefix rule

(* ---------- call graph ---------- *)

type graph = Lint_graph.t

let empty_graph = Lint_graph.empty
let build_graph = Lint_graph.build
let graph_size = Lint_graph.size

(* ---------- policy ---------- *)

(* The directories the scanner covers; also the anchors used to
   normalize the source paths recorded in .cmt files. *)
let scanned_dirs = [ "lib"; "bench"; "bin"; "tools" ]

let normalize_source source =
  (* dune records sources relative to the build context root, but be
     defensive about "./" prefixes and absolute paths: anchor at the
     first scanned-directory path segment when there is one. *)
  let parts = String.split_on_char '/' source in
  let rec from_anchor = function
    | d :: _ as rest when List.mem d scanned_dirs -> String.concat "/" rest
    | _ :: tl -> from_anchor tl
    | [] -> source
  in
  from_anchor parts

let source_segments source = String.split_on_char '/' (normalize_source source)

let lib_dir_of source =
  match source_segments source with
  | "lib" :: dir :: _ :: _ -> Some dir
  | _ -> None

(* Shared-memory parallelism is confined to the domain pool (all of
   lib/parallel). lib/crypto/verify_batch is exempt only for the mutex
   around its stats, which [-j] experiment tasks on several domains
   update through its global context; it starts no domain. Everything
   else in lib/crypto — and every other lib directory — stays
   single-domain deterministic.

   The exemption is matched on whole path segments (with the extension
   stripped), never on prefixes or substrings: lib/crypto/verify_batchx.ml
   does NOT inherit it. *)
let r2_domain_exempt source =
  match lib_dir_of source with
  | Some "parallel" -> true
  | _ -> (
      match source_segments source with
      | [ "lib"; "crypto"; file ] ->
          String.equal (Filename.remove_extension file) "verify_batch"
      | _ -> false)

(* lib/crypto/sha256.ml is the one module allowed to declare
   [external]s: its C stubs are the tree's whole foreign surface. Matched
   on whole path segments like the R2-domain exemption. *)
let r9_external source =
  match source_segments source with
  | [ "lib"; "crypto"; file ]
    when String.equal (Filename.remove_extension file) "sha256" ->
      []
  | _ -> [ "R9-external" ]

(* R6/R7 run everywhere fan-out calls can appear — which after PR 6 is
   any scanned directory. The passes are no-ops on files with no fan-out
   sites, so applying them broadly costs nothing. *)
let interproc_rules = Lint_interproc.rules

let policy ~source =
  match source_segments source with
  | "lib" :: dir :: _ :: _ ->
      let in_dirs dirs = List.mem dir dirs in
      List.concat
        [
          [ "R2-nondet"; "R4-print"; "R4-mli" ];
          (if r2_domain_exempt source then [] else [ "R2-domain" ]);
          (if in_dirs [ "sim"; "pbft"; "paxos"; "net"; "codec" ] then
             [ "R1-polycmp" ]
           else []);
          (if in_dirs [ "pbft"; "paxos"; "sim"; "core" ] then [ "R2-hiter" ]
           else []);
          (if in_dirs [ "pbft"; "paxos"; "crypto"; "codec"; "core" ] then
             [ "R3-partial"; "R3-catchall" ]
           else []);
          (* Signature verification outside lib/crypto must go through
             the caller's Verify_cache: a stray Signer.verify silently
             bypasses both the memo and its generation-stamped
             invalidation discipline. *)
          (if in_dirs [ "crypto" ] then [] else [ "R5-rawverify" ]);
          (* The harness and the crypto layer are configured by explicit
             values (Knobs.t, down to each world's caches) passed down
             each call; module-level mutable state there is a hidden
             second configuration surface. *)
          (if in_dirs [ "harness"; "crypto" ] then [ "R8-harnessglobal" ]
           else []);
          r9_external source;
          interproc_rules;
        ]
  | "bench" :: _ :: _ | "bin" :: _ :: _ ->
      (* Executables: no .mli to require and console output is their job,
         but they feed the golden tables, so determinism and totality
         still apply — and so does the parallel-purity discipline. *)
      [ "R2-nondet"; "R3-partial"; "R9-external" ] @ interproc_rules
  | "tools" :: rest when rest <> [] ->
      if List.mem "fixtures" rest then
        (* Lint fixtures violate rules on purpose; they are linted
           explicitly by the test suite, never by the tree scan. *)
        []
      else
        let file = List.nth_opt rest (List.length rest - 1) in
        let is_main =
          match file with
          | Some f -> String.equal (Filename.remove_extension f) "main"
          | None -> false
        in
        [ "R2-nondet"; "R3-partial"; "R9-external" ]
        @ (if is_main then [] else [ "R4-mli" ])
        @ interproc_rules
  | _ -> []

(* ---------- AST checks ---------- *)

type ctx = {
  source : string;
  rules : string list;
  allowlist : allowlist;
  mutable allow_stack : string list;
  mutable diags : diagnostic list;
  mutable fun_depth : int;
      (** enclosing function bodies; 0 = evaluated at module init *)
}

let report ctx ~rule ~(loc : Location.t) message =
  let site_allowed =
    List.exists (fun prefix -> rule_matches ~prefix rule) ctx.allow_stack
  in
  if
    List.mem rule ctx.rules
    && (not site_allowed)
    && not (allowlisted ctx.allowlist ~rule ~file:ctx.source)
  then begin
    let p = loc.Location.loc_start in
    ctx.diags <-
      {
        rule;
        file = ctx.source;
        line = p.Lexing.pos_lnum;
        col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
        message;
      }
      :: ctx.diags
  end

(* The interprocedural passes track their own [@bplint.allow] scopes
   (they slice across binding boundaries, so the iterator stack above
   does not apply); bridge their findings into this context's filters. *)
let interproc_report ctx ~rule ~loc ~allows message =
  let saved = ctx.allow_stack in
  ctx.allow_stack <- allows @ saved;
  report ctx ~rule ~loc message;
  ctx.allow_stack <- saved

let allows_of_attributes = Lint_diag.allows_of_attributes

let strip_stdlib name =
  let prefix = "Stdlib." in
  if String.starts_with ~prefix name then
    String.sub name (String.length prefix) (String.length name - String.length prefix)
  else name

let primitive_paths =
  Predef.
    [
      path_int;
      path_char;
      path_string;
      path_bytes;
      path_float;
      path_bool;
      path_unit;
      path_int32;
      path_int64;
      path_nativeint;
    ]

let expand_type env ty =
  (* cmt files store environments as summaries; rebuild enough of the env
     to expand abbreviations like [Int_map.key] or [Time.t] down to their
     definitions. Fall back to the unexpanded type when a cmi is missing. *)
  let env = try Envaux.env_of_only_summary env with _ -> env in
  try Ctype.expand_head env ty with _ -> ty

let rec type_is_primitive env ty =
  match Types.get_desc (expand_type env ty) with
  | Types.Tconstr (p, [], _) -> List.exists (Path.same p) primitive_paths
  | Types.Tvar _ | Types.Tunivar _ ->
      (* A still-polymorphic use inside a generic helper: nothing concrete
         to complain about at this site. *)
      true
  | Types.Tpoly (t, _) -> type_is_primitive env t
  | _ -> false

let first_arrow_arg ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, t1, _, _) -> Some t1
  | Types.Tpoly (t, _) -> (
      match Types.get_desc t with
      | Types.Tarrow (_, t1, _, _) -> Some t1
      | _ -> None)
  | _ -> None

let print_type ty =
  try Format.asprintf "%a" Printtyp.type_expr ty with _ -> "<type>"

(* All rule function lists use fully-qualified paths: a repo module's own
   monomorphic [compare]/[equal] resolves to a local ident and must not
   match. Unqualified uses of stdlib names resolve to [Stdlib.*] paths in
   the typedtree. *)

(* Functions whose semantics depend on polymorphic structural comparison
   (directly, or internally for the List.* family). *)
let poly_compare_fns =
  [
    "Stdlib.=";
    "Stdlib.<>";
    "Stdlib.<";
    "Stdlib.>";
    "Stdlib.<=";
    "Stdlib.>=";
    "Stdlib.compare";
    "Stdlib.min";
    "Stdlib.max";
    "Stdlib.Hashtbl.hash";
    "Stdlib.Hashtbl.seeded_hash";
    "Stdlib.List.mem";
    "Stdlib.List.assoc";
    "Stdlib.List.assoc_opt";
    "Stdlib.List.mem_assoc";
    "Stdlib.List.remove_assoc";
  ]

let nondet_fns =
  [
    "Stdlib.Sys.time";
    "Unix.time";
    "Unix.gettimeofday";
    "Stdlib.Hashtbl.randomize";
  ]

let hiter_fns = [ "Stdlib.Hashtbl.iter"; "Stdlib.Hashtbl.fold" ]

(* Any value from these modules (spawn, create, lock, ...) is flagged:
   shared-memory parallelism is confined to lib/parallel. *)
let domain_module_prefixes =
  [ "Stdlib.Domain."; "Stdlib.Atomic."; "Stdlib.Mutex."; "Stdlib.Condition." ]

let partial_fns =
  [ "Stdlib.Option.get"; "Stdlib.List.hd"; "Stdlib.List.tl"; "Stdlib.List.nth" ]

let print_fns =
  [
    "Stdlib.print_endline";
    "Stdlib.print_string";
    "Stdlib.print_newline";
    "Stdlib.print_char";
    "Stdlib.print_int";
    "Stdlib.print_float";
    "Stdlib.print_bytes";
    "Stdlib.prerr_endline";
    "Stdlib.prerr_string";
    "Stdlib.prerr_newline";
    "Stdlib.Printf.printf";
    "Stdlib.Printf.eprintf";
    "Stdlib.Format.printf";
    "Stdlib.Format.eprintf";
    "Stdlib.Format.print_string";
    "Stdlib.Format.print_newline";
  ]

(* Both spellings occur in cmt files: the alias path as written, and the
   mangled name of the wrapped library's implementation module. *)
let raw_verify_fns = [ "Bp_crypto.Signer.verify"; "Bp_crypto__Signer.verify" ]

let mutable_allocators =
  [
    "Stdlib.ref";
    "Stdlib.Hashtbl.create";
    "Stdlib.Array.make";
    "Stdlib.Buffer.create";
    "Stdlib.Atomic.make";
  ]

let report_global ctx ~loc what =
  report ctx ~rule:"R8-harnessglobal" ~loc
    (Printf.sprintf
       "module-level mutable state (%s): configuration travels as explicit \
        values (Knobs.t) and state is allocated inside the function that \
        owns it"
       what)

let check_ident ctx (e : Typedtree.expression) path =
  let qual = Path.name path in
  let name = strip_stdlib qual in
  let loc = e.Typedtree.exp_loc in
  if List.mem qual poly_compare_fns then begin
    match first_arrow_arg e.Typedtree.exp_type with
    | Some t1 when not (type_is_primitive e.Typedtree.exp_env t1) ->
        report ctx ~rule:"R1-polycmp" ~loc
          (Printf.sprintf
             "polymorphic %s at non-primitive type %s; use a monomorphic \
              comparison (String.equal, Int.compare, a dedicated equal/compare, \
              or restructure with a match)"
             name (print_type t1))
    | _ -> ()
  end;
  if
    List.mem qual nondet_fns
    || String.starts_with ~prefix:"Stdlib.Random." qual
  then
    report ctx ~rule:"R2-nondet" ~loc
      (Printf.sprintf
         "%s is a nondeterminism escape hatch; replicas and experiments must \
          draw time from Bp_sim.Time/Engine and randomness from Bp_util.Rng"
         name);
  if
    List.exists (fun prefix -> String.starts_with ~prefix qual)
      domain_module_prefixes
  then
    report ctx ~rule:"R2-domain" ~loc
      (Printf.sprintf
         "%s brings shared-memory parallelism into deterministic code; \
          multicore primitives (Domain/Atomic/Mutex/Condition) are confined \
          to lib/parallel (and the stats mutex of lib/crypto/verify_batch) \
          — express the work as independent Runner.plan tasks instead"
         name);
  if List.mem qual hiter_fns then
    report ctx ~rule:"R2-hiter" ~loc
      (Printf.sprintf
         "%s iterates in hash-bucket order, which depends on insertion \
          history; protocol state must not depend on it (fold to a sorted \
          list, use a Map, or track the aggregate incrementally)"
         name);
  if List.mem qual partial_fns then
    report ctx ~rule:"R3-partial" ~loc
      (Printf.sprintf
         "%s is partial; on a consensus/verification path use an explicit \
          match (raising a named invariant exception when impossible)"
         name)
  else if List.mem qual print_fns then
    report ctx ~rule:"R4-print" ~loc
      (Printf.sprintf
         "library code must not write to the console (%s); return strings or \
          log through Logs"
         name);
  if List.mem qual raw_verify_fns then
    report ctx ~rule:"R5-rawverify" ~loc
      "direct Signer.verify bypasses the per-node verification cache; call \
       Bp_crypto.Verify_cache.verify so verdict memoization and its \
       generation-based invalidation stay in force"

let rec pattern_catches_all : type k. k Typedtree.general_pattern -> bool =
 fun p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_any -> true
  | Typedtree.Tpat_var _ -> true
  | Typedtree.Tpat_alias (inner, _, _) -> pattern_catches_all inner
  | Typedtree.Tpat_or (a, b, _) -> pattern_catches_all a || pattern_catches_all b
  | _ -> false

let rec unwrap_option_some (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_construct (_, { Types.cstr_name = "Some"; _ }, [ inner ]) ->
      unwrap_option_some inner
  | _ -> e

(* R8: what a module-level binding evaluates at initialisation — outside
   every function body — must not allocate mutable state. *)
let check_global ctx (e : Typedtree.expression) =
  let loc = e.Typedtree.exp_loc in
  if ctx.fun_depth = 0 then
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_apply
        ({ Typedtree.exp_desc = Typedtree.Texp_ident (path, _, _); _ }, _)
      when List.mem (Path.name path) mutable_allocators ->
        report_global ctx ~loc (strip_stdlib (Path.name path))
    | Typedtree.Texp_record { fields; _ }
      when Array.exists
             (fun ((l : Types.label_description), _) ->
               match l.Types.lbl_mut with
               | Asttypes.Mutable -> true
               | Asttypes.Immutable -> false)
             fields ->
        report_global ctx ~loc "record with mutable fields"
    | _ -> ()

let check_expr ctx (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (path, _, _) -> check_ident ctx e path
  | Typedtree.Texp_apply (fn, args) -> (
      match fn.Typedtree.exp_desc with
      | Typedtree.Texp_ident (path, _, _)
        when String.equal (Path.name path) "Stdlib.Hashtbl.create" ->
          let randomized =
            List.exists
              (fun (label, arg) ->
                match (label, arg) with
                | (Asttypes.Labelled "random" | Asttypes.Optional "random"),
                  Some arg -> (
                    (* An omitted ?random is elaborated as a None argument;
                       only an explicit non-false value randomizes. *)
                    match (unwrap_option_some arg).Typedtree.exp_desc with
                    | Typedtree.Texp_construct
                        (_, { Types.cstr_name = "false" | "None"; _ }, _) ->
                        false
                    | _ -> true)
                | _ -> false)
              args
          in
          if randomized then
            report ctx ~rule:"R2-nondet" ~loc:e.Typedtree.exp_loc
              "Hashtbl.create ~random:true makes iteration order differ \
               across runs; deterministic replay forbids it"
      | _ -> ())
  | Typedtree.Texp_try (_, cases) ->
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          if pattern_catches_all c.Typedtree.c_lhs then
            report ctx ~rule:"R3-catchall"
              ~loc:c.Typedtree.c_lhs.Typedtree.pat_loc
              "catch-all exception handler: a swallowed programming error \
               reads as Byzantine input; match the specific exceptions the \
               guarded code can raise")
        cases
  | _ -> ()

let make_iterator ctx =
  let super = Tast_iterator.default_iterator in
  let with_allows attrs k =
    let pushed = allows_of_attributes attrs in
    let saved = ctx.allow_stack in
    ctx.allow_stack <- pushed @ saved;
    k ();
    ctx.allow_stack <- saved
  in
  let expr sub (e : Typedtree.expression) =
    with_allows e.Typedtree.exp_attributes (fun () ->
        check_global ctx e;
        check_expr ctx e;
        match e.Typedtree.exp_desc with
        | Typedtree.Texp_function _ ->
            ctx.fun_depth <- ctx.fun_depth + 1;
            super.Tast_iterator.expr sub e;
            ctx.fun_depth <- ctx.fun_depth - 1
        | _ -> super.Tast_iterator.expr sub e)
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    with_allows vb.Typedtree.vb_attributes (fun () ->
        super.Tast_iterator.value_binding sub vb)
  in
  let structure_item sub (si : Typedtree.structure_item) =
    match si.Typedtree.str_desc with
    | Typedtree.Tstr_attribute a ->
        with_allows [ a ] (fun () -> super.Tast_iterator.structure_item sub si)
    | Typedtree.Tstr_primitive vd ->
        with_allows vd.Typedtree.val_attributes (fun () ->
            report ctx ~rule:"R9-external" ~loc:vd.Typedtree.val_loc
              (Printf.sprintf
                 "external %s: foreign declarations are confined to \
                  lib/crypto/sha256.ml (and its sha256_stubs.c), so the C \
                  surface stays one audited file"
                 (Ident.name vd.Typedtree.val_id));
            super.Tast_iterator.structure_item sub si)
    | _ -> super.Tast_iterator.structure_item sub si
  in
  { super with Tast_iterator.expr; value_binding; structure_item }

(* ---------- cmt driving ---------- *)

let generated_source = function
  | None -> true
  | Some s -> Filename.check_suffix s ".ml-gen"

let ends_with ~suffix s =
  let sl = String.length suffix and l = String.length s in
  l >= sl && String.equal (String.sub s (l - sl) sl) suffix

let init_cmt_env ~cmt_path (cmt : Cmt_format.cmt_infos) =
  (* Point the compiler's load path at the cmi directories recorded when
     this cmt was built, so Envaux can reconstruct environments. dune
     records the build dir as the sanitized placeholder "/workspace_root"
     and library dirs relative to the build-context root, so recover that
     root from the cmt's own path: it ends with one of the relative
     loadpath entries (its own .objs/byte directory). *)
  let dir = Filename.dirname cmt_path in
  let rels =
    List.filter (fun p -> p <> "" && Filename.is_relative p)
      cmt.Cmt_format.cmt_loadpath
  in
  let root =
    match List.find_opt (fun e -> ends_with ~suffix:e dir) rels with
    | Some e -> String.sub dir 0 (String.length dir - String.length e)
    | None -> ""
  in
  let absolute p =
    if Filename.is_relative p then root ^ p else p
  in
  Load_path.init ~auto_include:Load_path.no_auto_include
    (List.map absolute rels
    @ List.filter (fun p -> not (Filename.is_relative p))
        cmt.Cmt_format.cmt_loadpath);
  Env.reset_cache ();
  Envaux.reset_cache ()

let lint_cmt ?(allowlist = empty_allowlist) ?(graph = Lint_graph.empty) ~rules
    path =
  let cmt = Cmt_format.read_cmt path in
  init_cmt_env ~cmt_path:path cmt;
  if generated_source cmt.Cmt_format.cmt_sourcefile then []
  else begin
    let source =
      match cmt.Cmt_format.cmt_sourcefile with
      | Some s -> normalize_source s
      | None -> path
    in
    let ctx =
      { source; rules; allowlist; allow_stack = []; diags = []; fun_depth = 0 }
    in
    (if
       List.mem "R4-mli" rules
       && (not (allowlisted allowlist ~rule:"R4-mli" ~file:source))
       && Filename.check_suffix source ".ml"
     then
       let cmti = Filename.remove_extension path ^ ".cmti" in
       if not (Sys.file_exists cmti) then
         ctx.diags <-
           {
             rule = "R4-mli";
             file = source;
             line = 1;
             col = 0;
             message =
               "library module has no .mli; every lib/ module must declare \
                its interface";
           }
           :: ctx.diags);
    (match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
        let iter = make_iterator ctx in
        iter.Tast_iterator.structure iter str;
        if List.exists (fun r -> List.mem r rules) Lint_interproc.rules then
          Lint_interproc.check ~report:(interproc_report ctx) ~graph
            ~modname:(Lint_graph.normalize_name cmt.Cmt_format.cmt_modname)
            str
    | _ -> ());
    List.rev ctx.diags
  end

(* ---------- whole-tree scan ---------- *)

type scan_stats = {
  files_scanned : int;
  graph_defs : int;
  graph_edges : int;
  rule_hits : (string * int) list;
}

let scan ?(allowlist = empty_allowlist) ~root () =
  let cmts = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort String.compare entries;
        Array.iter
          (fun entry ->
            let full = Filename.concat dir entry in
            if Sys.is_directory full then begin
              if
                not
                  (List.mem entry [ "_build"; ".git"; "node_modules"; "_opam" ])
              then walk full
            end
            else if Filename.check_suffix entry ".cmt" then
              cmts := full :: !cmts)
          entries
    | exception Sys_error _ -> ()
  in
  List.iter
    (fun d ->
      let dir = Filename.concat root d in
      if Sys.file_exists dir && Sys.is_directory dir then walk dir)
    scanned_dirs;
  let cmts = List.sort String.compare !cmts in
  (* The call graph spans every scanned .cmt, so a pool job in lib/core
     is checked through helpers it calls in lib/crypto. *)
  let graph = Lint_graph.build cmts in
  let files_scanned = ref 0 in
  let diags =
    List.concat_map
      (fun path ->
        match Cmt_format.read_cmt path with
        | exception _ -> []
        | cmt ->
            if generated_source cmt.Cmt_format.cmt_sourcefile then []
            else begin
              let source =
                match cmt.Cmt_format.cmt_sourcefile with
                | Some s -> normalize_source s
                | None -> path
              in
              let rules = policy ~source in
              if rules = [] then []
              else begin
                incr files_scanned;
                lint_cmt ~allowlist ~graph ~rules path
              end
            end)
      cmts
  in
  let diags = List.sort Lint_diag.compare_diag diags in
  let graph_defs, graph_edges = Lint_graph.size graph in
  let rule_hits =
    List.map
      (fun rule ->
        ( rule,
          List.length (List.filter (fun d -> String.equal d.rule rule) diags) ))
      all_rules
  in
  (diags, { files_scanned = !files_scanned; graph_defs; graph_edges; rule_hits })
