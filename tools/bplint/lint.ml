type diagnostic = {
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
    "R6-planescape";
    "R8-harnessglobal";
    "R9-external";
    "R10-accept";
    "R11-ledger";
  ]

let to_string d =
  Printf.sprintf "%s:%d:%d: [%s] %s" d.file d.line d.col d.rule d.message

let rule_matches ~prefix rule = String.starts_with ~prefix rule

(* Path patterns are anchored on '/'-separated segments: the pattern's
   segments must match a contiguous run of the file's segments exactly,
   except that the final pattern segment may also match a segment with
   its extension stripped ("native" matches ".../native.ml"). Substrings
   inside a segment never match: a "native" pattern does not match
   "nativex.ml". *)
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

let matches_any patterns source =
  List.exists
    (fun pattern -> path_matches ~pattern (normalize_source source))
    patterns

(* Shared-memory parallelism is confined to the [-j] fork-join (all of
   lib/parallel); every other lib directory stays single-domain
   deterministic.

   The exemption is matched by [path_matches], on whole path segments,
   never on prefixes or substrings: lib/parallelx/pool.ml does NOT
   inherit it. *)
let r2_domain_exempt = matches_any [ "lib/parallel" ]

(* lib/crypto/native.ml is the one module allowed to declare
   [external]s: its C stubs are the tree's whole foreign surface. Matched
   like the R2-domain exemption. *)
let r9_external source =
  if matches_any [ "lib/crypto/native" ] source then [] else [ "R9-external" ]

(* R6-planescape runs wherever a Runner.Plan can be built; it is a no-op
   on files that build none. *)
let plan_rule = "R6-planescape"

(* R10-accept covers the verification routines of user protocols: the
   directories where [App.S] modules and [Unit_node.verifier] live. *)
let accept_rule = "R10-accept"

(* R11-ledger covers the apps: outside [Byzantize], no app judges a
   communication record itself. *)
let ledger_rule = "R11-ledger"

let policy ~source =
  match source_segments source with
  | "lib" :: dir :: _ :: _ ->
      let in_dirs dirs = List.mem dir dirs in
      List.concat
        [
          [ "R2-nondet"; "R4-print"; "R4-mli" ];
          (if r2_domain_exempt source then [] else [ "R2-domain" ]);
          (if in_dirs [ "harness"; "cli" ] then [] else [ "R1-polycmp" ]);
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
             values (Knobs.t, each world's own arguments) passed down
             each call; module-level mutable state there is a hidden
             second configuration surface. *)
          (if in_dirs [ "harness"; "crypto" ] then [ "R8-harnessglobal" ]
           else []);
          r9_external source;
          [ plan_rule ];
          (if in_dirs [ "core"; "apps" ] then [ accept_rule ] else []);
          (if in_dirs [ "apps" ] && not (matches_any [ "lib/apps/byzantize" ] source)
           then [ ledger_rule ]
           else []);
        ]
  | "bench" :: _ :: _ | "bin" :: _ :: _ ->
      (* Executables: no .mli to require and console output is their job,
         but they feed the golden tables, so determinism and totality
         still apply — and so does the plan-task discipline. *)
      [ "R2-nondet"; "R3-partial"; "R9-external"; plan_rule ]
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
        [ "R2-nondet"; "R3-partial"; "R9-external"; plan_rule ]
        @ (if is_main then [] else [ "R4-mli" ])
  | _ -> []

(* ---------- AST checks ---------- *)

type ctx = {
  source : string;
  rules : string list;
  mutable allow_stack : string list;
  mutable diags : diagnostic list;
  mutable fun_depth : int;
      (** enclosing function bodies; 0 = evaluated at module init *)
  mutable plan_sites : int;  (** structure items R6 inspected *)
  mutable judged : string list;
      (** names of the verification routines bound by the enclosing
          structure (R10-accept) *)
  mutable in_verify : int;  (** enclosing verification routines *)
  mutable in_app_verify : int;
      (** enclosing [verify]s of App.S-shaped structures (R11-ledger) *)
}

let report ctx ~rule ~(loc : Location.t) message =
  let site_allowed =
    List.exists (fun prefix -> rule_matches ~prefix rule) ctx.allow_stack
  in
  if List.mem rule ctx.rules && not site_allowed then begin
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

(* Rule prefixes named by [[@bplint.allow "R1 R2-nondet"]] attributes. *)
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

let with_allows ctx attrs k =
  let saved = ctx.allow_stack in
  ctx.allow_stack <- allows_of_attributes attrs @ saved;
  k ();
  ctx.allow_stack <- saved

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
    "Stdlib.Hashtbl.hash";
    "Stdlib.Hashtbl.seeded_hash";
    "Stdlib.List.mem";
    "Stdlib.List.assoc";
    "Stdlib.List.assoc_opt";
    "Stdlib.List.mem_assoc";
    "Stdlib.List.remove_assoc";
  ]

(* Library functions over [compare], not primitives: even at [int] they
   call [caml_compare], so they are flagged at every type. *)
let minmax_fns = [ "Stdlib.min"; "Stdlib.max" ]

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
  if List.mem qual minmax_fns then
    report ctx ~rule:"R1-polycmp" ~loc
      (Printf.sprintf
         "%s calls polymorphic compare at every type, int included; use \
          Int.%s, or for floats an explicit comparison (Float.%s differs on \
          NaN)"
         name name name)
  else if List.mem qual poly_compare_fns then begin
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
          to lib/parallel — express the work as independent Runner.plan \
          tasks instead"
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

(* R6-planescape: the Runner.plan contract — tasks share no mutable
   state, so a -j N run renders the -j 1 bytes — checked where a plan is
   built. In a structure item that constructs Runner.Plan, no
   [fun () -> ...] closure may write a value bound outside it. Closures
   nested in such a closure belong to it, and calls into other items are
   not followed: module-level state in lib/harness and lib/crypto is
   R8's job. *)

let is_plan_constructor (cd : Types.constructor_description) =
  String.equal cd.Types.cstr_name "Plan"
  &&
  match Types.get_desc cd.Types.cstr_res with
  | Types.Tconstr (Path.Pdot (m, "plan"), _, _) ->
      let m = Path.last m in
      String.equal m "Runner" || String.ends_with ~suffix:"__Runner" m
  | _ -> false

(* Whether the tree [walk] runs an iterator over constructs a plan. *)
let builds_plan walk =
  let found = ref false in
  let expr sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_construct (_, cd, _) when is_plan_constructor cd ->
        found := true
    | _ -> ());
    Tast_iterator.default_iterator.Tast_iterator.expr sub e
  in
  walk { Tast_iterator.default_iterator with Tast_iterator.expr };
  !found

let is_unit_closure (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function { cases = [ c ]; _ } -> (
      match c.Typedtree.c_lhs.Typedtree.pat_desc with
      | Typedtree.Tpat_construct (_, cd, [], _) ->
          String.equal cd.Types.cstr_name "()"
      | _ -> false)
  | _ -> false

(* Idents bound anywhere inside [e]: writes to those stay in the task. *)
let bound_idents (e : Typedtree.expression) =
  let bound = Hashtbl.create 32 in
  let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit
      =
   fun sub p ->
    (match p.Typedtree.pat_desc with
    | Typedtree.Tpat_var (id, _) | Typedtree.Tpat_alias (_, id, _) ->
        Hashtbl.replace bound (Ident.unique_name id) ()
    | _ -> ());
    Tast_iterator.default_iterator.Tast_iterator.pat sub p
  in
  let it = { Tast_iterator.default_iterator with Tast_iterator.pat } in
  it.Tast_iterator.expr it e;
  bound

(* The identifier at the root of [x], [x.f], [x.f.g], ... *)
let rec access_root (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | Typedtree.Texp_field (inner, _, _) -> access_root inner
  | _ -> None

(* Which positional argument a stdlib write mutates. *)
let mutated_arg fn =
  match String.split_on_char '.' fn with
  | [ "Stdlib"; (":=" | "incr" | "decr") ] -> Some 0
  | [
   "Stdlib";
   "Hashtbl";
   ( "add" | "replace" | "remove" | "clear" | "reset" | "filter_map_inplace"
   | "add_seq" | "replace_seq" );
  ] ->
      Some 0
  | [ "Stdlib"; "Buffer"; f ] ->
      if
        String.starts_with ~prefix:"add_" f
        || List.mem f [ "clear"; "reset"; "truncate" ]
      then Some 0
      else None
  | [ "Stdlib"; ("Array" | "Bytes"); ("set" | "unsafe_set" | "fill") ] -> Some 0
  | [ "Stdlib"; ("Array" | "Bytes"); ("blit" | "blit_string") ] -> Some 2
  | [ "Stdlib"; "Array"; ("sort" | "stable_sort" | "fast_sort") ] -> Some 1
  | _ -> None

let check_plan_task ctx (task : Typedtree.expression) =
  let bound = bound_idents task in
  let check_write ~loc target =
    match Option.bind target access_root with
    | Some (Path.Pident id) when Hashtbl.mem bound (Ident.unique_name id) -> ()
    | Some p ->
        report ctx ~rule:plan_rule ~loc
          (Printf.sprintf
             "Runner.Plan task writes %s, which is bound outside the task; \
              tasks run on any domain in any order, so each must own its \
              state and return its result through merge"
             (Path.name p))
    | None -> ()
  in
  let expr sub (e : Typedtree.expression) =
    with_allows ctx e.Typedtree.exp_attributes (fun () ->
        let loc = e.Typedtree.exp_loc in
        (match e.Typedtree.exp_desc with
        | Typedtree.Texp_setfield (obj, _, _, _) -> check_write ~loc (Some obj)
        | Typedtree.Texp_apply
            ({ Typedtree.exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args)
          -> (
            match mutated_arg (Path.name p) with
            | Some i ->
                let positional =
                  List.filter_map
                    (function Asttypes.Nolabel, a -> a | _ -> None)
                    args
                in
                check_write ~loc (List.nth_opt positional i)
            | None -> ())
        | _ -> ());
        Tast_iterator.default_iterator.Tast_iterator.expr sub e)
  in
  let it = { Tast_iterator.default_iterator with Tast_iterator.expr } in
  it.Tast_iterator.expr it task

(* Check the outermost unit closures of a plan-building item that are
   not themselves the plan builder (as in [let table1_plan () = Plan ...]). *)
let check_plan_item ctx (si : Typedtree.structure_item) =
  ctx.plan_sites <- ctx.plan_sites + 1;
  let expr sub (e : Typedtree.expression) =
    with_allows ctx e.Typedtree.exp_attributes (fun () ->
        if
          is_unit_closure e
          && not (builds_plan (fun it -> it.Tast_iterator.expr it e))
        then check_plan_task ctx e
        else Tast_iterator.default_iterator.Tast_iterator.expr sub e)
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    with_allows ctx vb.Typedtree.vb_attributes (fun () ->
        Tast_iterator.default_iterator.Tast_iterator.value_binding sub vb)
  in
  let it =
    { Tast_iterator.default_iterator with Tast_iterator.expr; value_binding }
  in
  it.Tast_iterator.structure_item it si

(* R10-accept: a verification routine must judge. In a structure shaped
   like [App.S] (it binds [verify], [apply] and [digest]) its [verify],
   and any [verifier] (Unit_node's), may have no match arm or function
   case whose body is the literal [true] unless that [true] carries an
   allow attribute, whose comment says why accepting there is safe. *)
let binding_name (vb : Typedtree.value_binding) =
  match vb.Typedtree.vb_pat.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, _) -> Some (Ident.name id)
  | _ -> None

let judged_names (str : Typedtree.structure) =
  let names =
    List.concat_map
      (fun (si : Typedtree.structure_item) ->
        match si.Typedtree.str_desc with
        | Typedtree.Tstr_value (_, vbs) -> List.filter_map binding_name vbs
        | _ -> [])
      str.Typedtree.str_items
  in
  let binds n = List.mem n names in
  "verifier" :: (if binds "verify" && binds "apply" && binds "digest" then [ "verify" ] else [])

let check_accept ctx (e : Typedtree.expression) =
  let case : type k. k Typedtree.case -> unit =
   fun c ->
    let rhs = c.Typedtree.c_rhs in
    match rhs.Typedtree.exp_desc with
    | Typedtree.Texp_construct (_, { Types.cstr_name = "true"; _ }, []) ->
        with_allows ctx rhs.Typedtree.exp_attributes (fun () ->
            report ctx ~rule:accept_rule ~loc:rhs.Typedtree.exp_loc
              "a verification routine accepts here without judging the \
               record; judge it, or mark the literal true [@bplint.allow \
               \"R10-accept\"] with a comment saying why accepting is safe")
    | _ -> ()
  in
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_match (_, cases, _) -> List.iter case cases
  | Typedtree.Texp_function { cases; _ } -> List.iter case cases
  | _ -> ()

(* R11-ledger: in an app, a send is legal only while committed records
   owe it, and [Byzantize] is the one ledger that judges that. A
   [Record.Comm] pattern in the [verify] of an App.S-shaped structure
   elsewhere in lib/apps is an app judging sends by its own
   bookkeeping (credits kept by message kind alone let one node flip a
   2PC outcome). Shard's commit-step wrapper lives in lib/core and
   judges its 2PC sends by its unit's executed evidence. *)
let record_types = [ "Blockplane.Record.t"; "Blockplane__Record.t" ]

let check_ledger : type k. ctx -> k Typedtree.general_pattern -> unit =
 fun ctx p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_construct (_, cd, _, _)
    when String.equal cd.Types.cstr_name "Comm" -> (
      match Types.get_desc cd.Types.cstr_res with
      | Types.Tconstr (path, _, _) when List.mem (Path.name path) record_types ->
          report ctx ~rule:ledger_rule ~loc:p.Typedtree.pat_loc
            "an app's verify judges a communication record itself; build the \
             app on Bp_apps.Byzantize.Make, whose ledger makes a send legal \
             only while committed records owe it"
      | _ -> ())
  | _ -> ()

let make_iterator ctx =
  let super = Tast_iterator.default_iterator in
  let with_allows = with_allows ctx in
  let expr sub (e : Typedtree.expression) =
    with_allows e.Typedtree.exp_attributes (fun () ->
        check_global ctx e;
        check_expr ctx e;
        if ctx.in_verify > 0 then check_accept ctx e;
        match e.Typedtree.exp_desc with
        | Typedtree.Texp_function _ ->
            ctx.fun_depth <- ctx.fun_depth + 1;
            super.Tast_iterator.expr sub e;
            ctx.fun_depth <- ctx.fun_depth - 1
        | _ -> super.Tast_iterator.expr sub e)
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    let judged =
      match binding_name vb with
      | Some name -> List.mem name ctx.judged
      | None -> false
    in
    (* [verify] is judged only in an App.S-shaped structure. *)
    let app_verify = judged && binding_name vb = Some "verify" in
    if judged then ctx.in_verify <- ctx.in_verify + 1;
    if app_verify then ctx.in_app_verify <- ctx.in_app_verify + 1;
    with_allows vb.Typedtree.vb_attributes (fun () ->
        super.Tast_iterator.value_binding sub vb);
    if judged then ctx.in_verify <- ctx.in_verify - 1;
    if app_verify then ctx.in_app_verify <- ctx.in_app_verify - 1
  in
  let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit =
   fun sub p ->
    with_allows p.Typedtree.pat_attributes (fun () ->
        if ctx.in_app_verify > 0 then check_ledger ctx p;
        super.Tast_iterator.pat sub p)
  in
  let structure sub (str : Typedtree.structure) =
    let saved = ctx.judged in
    ctx.judged <- judged_names str;
    super.Tast_iterator.structure sub str;
    ctx.judged <- saved
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
                  lib/crypto/native.ml (and its native_stubs.c), so the C \
                  surface stays one audited file"
                 (Ident.name vd.Typedtree.val_id));
            super.Tast_iterator.structure_item sub si)
    | Typedtree.Tstr_value _
      when List.mem plan_rule ctx.rules
           && builds_plan (fun it -> it.Tast_iterator.structure_item it si) ->
        check_plan_item ctx si;
        super.Tast_iterator.structure_item sub si
    | _ -> super.Tast_iterator.structure_item sub si
  in
  { super with Tast_iterator.expr; pat; value_binding; structure; structure_item }

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

(* Lint one read [.cmt] under the rules [rules_of] picks for its source.
   [None] for generated modules and for sources given no rules. *)
let lint_file ~rules_of path (cmt : Cmt_format.cmt_infos) =
  let source =
    match cmt.Cmt_format.cmt_sourcefile with
    | Some s -> normalize_source s
    | None -> path
  in
  match rules_of source with
  | [] -> None
  | _ when generated_source cmt.Cmt_format.cmt_sourcefile -> None
  | rules ->
      init_cmt_env ~cmt_path:path cmt;
      let ctx =
        {
          source;
          rules;
          allow_stack = [];
          diags = [];
          fun_depth = 0;
          plan_sites = 0;
          judged = [];
          in_verify = 0;
          in_app_verify = 0;
        }
      in
      (if
         List.mem "R4-mli" rules && Filename.check_suffix source ".ml"
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
          iter.Tast_iterator.structure iter str
      | _ -> ());
      Some (List.rev ctx.diags, ctx.plan_sites)

let lint_cmt ~rules path =
  match lint_file ~rules_of:(fun _ -> rules) path (Cmt_format.read_cmt path)
  with
  | Some (diags, _) -> diags
  | None -> []

(* ---------- statistics and the whole-tree scan ---------- *)

type scan_stats = {
  files_scanned : int;
  plan_sites : int;
  rule_hits : (string * int) list;
}

let summarize results =
  (* Sorted by file, then (line, col, rule). *)
  let compare_diag a b =
    match String.compare a.file b.file with
    | 0 -> Stdlib.compare (a.line, a.col, a.rule) (b.line, b.col, b.rule)
    | c -> c
  in
  let diags = List.sort compare_diag (List.concat_map fst results) in
  let rule_hits =
    List.map
      (fun rule ->
        ( rule,
          List.length (List.filter (fun d -> String.equal d.rule rule) diags) ))
      all_rules
  in
  ( diags,
    {
      files_scanned = List.length results;
      plan_sites = List.fold_left (fun n (_, sites) -> n + sites) 0 results;
      rule_hits;
    } )

let lint_files ~rules paths =
  summarize
    (List.filter_map
       (fun path ->
         lint_file ~rules_of:(fun _ -> rules) path (Cmt_format.read_cmt path))
       paths)

let scan ~root =
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
  summarize
    (List.filter_map
       (fun path ->
         match Cmt_format.read_cmt path with
         | exception _ -> None
         | cmt ->
             lint_file ~rules_of:(fun source -> policy ~source) path cmt)
       (List.sort String.compare !cmts))
