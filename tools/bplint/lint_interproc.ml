(* R6-domainescape / R7-parpure: the domain-pool task discipline
   (DESIGN.md §7, "Parallel purity"), statically enforced.

   Both passes start from the same place: the closures that actually run
   on pool worker domains. A *task* is a unit-argument closure
   ([fun () -> ...]) that flows into an argument of one of the fan-out
   entry points (Pool.run/map). "Flows into" is a small intra-item
   slice: starting from the argument expressions we follow let-bound
   identifiers of the same structure item and the right-hand sides of
   [r := ...] assignments (so thunks accumulated through a list ref are
   found), but we do not enter non-unit closures (a [fun x -> ...]
   task-list builder runs on the calling domain, not a worker) and we do
   not follow parameters or module-level functions (a task list received
   as an argument is the submitting caller's to prove).

   R6-domainescape then checks each task body for captured mutable
   state: reads of refs that are not submitting-scope snapshots, any
   write to a captured ref / mutable record field / Hashtbl / Buffer /
   Bytes / Array, and any Hashtbl or Buffer access at all (hashtables
   and buffers are never recognized snapshots). Pool.run and Pool.map
   block until every task has finished, so no submit→join window exists
   in which the caller could mutate what a task captured.

   R7-parpure collects the functions a task body references and walks
   the cross-module call graph (Lint_graph) looking for
   protocol-domain-only operations: Verify_cache access, Signer keystore
   access (only [verify_key] is domain-safe), network sends, the
   simulator engine/clock, Random / shared Rng streams, wall clocks.
   A binding carrying [@@bplint.parallel_pure] is an audited exemption:
   the walk neither reports nor expands it. *)

type report_fn =
  rule:string -> loc:Location.t -> allows:string list -> string -> unit

let rules = [ "R6-domainescape"; "R7-parpure" ]

(* Entry points that fan work out to pool domains. Calls inside the
   defining modules resolve to local idents; [qualify] names those the
   same way, so the set needs only the canonical spellings. *)
let fanout_fns = [ "Bp_parallel.Pool.run"; "Bp_parallel.Pool.map" ]

(* ---------- R7 forbidden set ---------- *)

let parallel_safe = [ "Bp_crypto.Signer.verify_key" ]

let forbidden_prefixes =
  [
    ( "Bp_crypto.Verify_cache.",
      "the verify cache is protocol-domain state: a pool job must not \
       probe or record it" );
    ( "Bp_crypto.Signer.",
      "the keystore is protocol-domain state: snapshot keys before \
       Pool.run; a pool job may only run Signer.verify_key" );
    ("Bp_net.", "network access from a pool job");
    ("Bp_sim.Network.", "simulated network access from a pool job");
    ("Bp_sim.Engine.", "simulator engine/clock access from a pool job");
    ("Stdlib.Random.", "nondeterministic randomness in a pool job");
    ( "Bp_util.Rng.",
      "drawing from a shared Rng stream in a pool job makes the stream \
       depend on worker scheduling" );
  ]

let forbidden_exact =
  [
    ("Stdlib.Sys.time", "wall-clock read in a pool job");
    ("Unix.time", "wall-clock read in a pool job");
    ("Unix.gettimeofday", "wall-clock read in a pool job");
  ]

let forbidden_reason name =
  if List.mem name parallel_safe then None
  else
    match List.assoc_opt name forbidden_exact with
    | Some r -> Some r
    | None ->
        List.find_map
          (fun (p, r) ->
            if String.starts_with ~prefix:p name then Some r else None)
          forbidden_prefixes

(* ---------- small typedtree helpers ---------- *)

let is_unit_closure (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function { cases = [ c ]; _ } -> (
      match c.Typedtree.c_lhs.Typedtree.pat_desc with
      | Typedtree.Tpat_construct (_, cstr, [], _) ->
          String.equal cstr.Types.cstr_name "()"
      | _ -> false)
  | _ -> false

let closure_body (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function { cases = [ c ]; _ } -> Some c.Typedtree.c_rhs
  | _ -> None

(* The identifier at the root of an access path: [x], [x.f.g],
   [(x.f).g] ... Local idents are returned as the ident, module-level
   paths as their normalized name. *)
let rec access_root (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> Some (`Local id)
  | Typedtree.Texp_ident (p, _, _) ->
      Some (`Global (Lint_graph.normalize_name (Path.name p)))
  | Typedtree.Texp_field (inner, _, _) -> access_root inner
  | _ -> None

let positional_args args =
  List.filter_map
    (function Asttypes.Nolabel, Some (a : Typedtree.expression) -> Some a | _ -> None)
    args

let ident_key id = Ident.unique_name id

(* Stdlib mutators whose first positional argument is the mutated
   structure. Hashtbl and Buffer additionally have their *reads* flagged
   inside tasks (handled separately): neither is ever a snapshot. *)
let array_mutators =
  [ "set"; "unsafe_set"; "fill"; "blit"; "sort"; "stable_sort"; "fast_sort" ]

let bytes_mutators = [ "set"; "unsafe_set"; "fill"; "blit"; "blit_string" ]

let module_fn ~m name =
  let prefix = "Stdlib." ^ m ^ "." in
  if String.starts_with ~prefix name then
    Some (String.sub name (String.length prefix) (String.length name - String.length prefix))
  else None

(* ---------- per-structure-item tables ---------- *)

type item_tables = {
  let_defs : (string, Typedtree.expression list) Hashtbl.t;
      (* ident -> binding exprs (all lets anywhere in the item) *)
  ref_assigns : (string, Typedtree.expression list) Hashtbl.t;
      (* ident -> RHS exprs of [ident := ...] *)
}

let table_add tbl key v =
  let prev = match Hashtbl.find_opt tbl key with Some l -> l | None -> [] in
  Hashtbl.replace tbl key (v :: prev)

let collect_tables (si : Typedtree.structure_item) =
  let t = { let_defs = Hashtbl.create 32; ref_assigns = Hashtbl.create 8 } in
  let add_lets vbs =
    List.iter
      (fun (vb : Typedtree.value_binding) ->
        match vb.Typedtree.vb_pat.Typedtree.pat_desc with
        | Typedtree.Tpat_var (id, _) ->
            table_add t.let_defs (ident_key id) vb.Typedtree.vb_expr
        | _ -> ())
      vbs
  in
  let on_expr (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_let (_, vbs, _) -> add_lets vbs
    | Typedtree.Texp_apply
        ({ Typedtree.exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args)
      when String.equal (Path.name p) "Stdlib.:=" -> (
        match positional_args args with
        | [ lhs; rhs ] -> (
            match access_root lhs with
            | Some (`Local id) -> table_add t.ref_assigns (ident_key id) rhs
            | _ -> ())
        | _ -> ())
    | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      Tast_iterator.expr =
        (fun sub e ->
          on_expr e;
          Tast_iterator.default_iterator.Tast_iterator.expr sub e);
      Tast_iterator.structure_item =
        (fun sub si ->
          (match si.Typedtree.str_desc with
          | Typedtree.Tstr_value (_, vbs) -> add_lets vbs
          | _ -> ());
          Tast_iterator.default_iterator.Tast_iterator.structure_item sub si);
    }
  in
  it.Tast_iterator.structure_item it si;
  t

(* ---------- fan-out sites ---------- *)

type fanout = {
  f_args : Typedtree.expression list;
  f_allows : string list; (* [@bplint.allow] prefixes in force at the site *)
}

let collect_fanouts ~locals (si : Typedtree.structure_item) =
  let sites = ref [] in
  let stack = ref [] in
  let with_allows attrs k =
    let saved = !stack in
    stack := Lint_diag.allows_of_attributes attrs @ saved;
    k ();
    stack := saved
  in
  let it =
    {
      Tast_iterator.default_iterator with
      Tast_iterator.expr =
        (fun sub e ->
          with_allows e.Typedtree.exp_attributes (fun () ->
              (match e.Typedtree.exp_desc with
              | Typedtree.Texp_apply (fn, args) -> (
                  match fn.Typedtree.exp_desc with
                  | Typedtree.Texp_ident (p, _, _) -> (
                      match Lint_graph.qualify ~locals p with
                      | Some name when List.mem name fanout_fns ->
                          sites :=
                            { f_args = positional_args args; f_allows = !stack }
                            :: !sites
                      | _ -> ())
                  | _ -> ())
              | _ -> ());
              Tast_iterator.default_iterator.Tast_iterator.expr sub e));
      Tast_iterator.value_binding =
        (fun sub vb ->
          with_allows vb.Typedtree.vb_attributes (fun () ->
              Tast_iterator.default_iterator.Tast_iterator.value_binding sub vb));
    }
  in
  it.Tast_iterator.structure_item it si;
  List.rev !sites

(* ---------- the argument slice ---------- *)

let slice_tasks tables args =
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let tasks = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      Tast_iterator.expr =
        (fun sub e ->
          if is_unit_closure e then tasks := e :: !tasks
          else
            match e.Typedtree.exp_desc with
            | Typedtree.Texp_function _ ->
                (* A non-unit closure in a fan-out argument builds job
                   *data* on the calling domain; it is not a task and
                   may legitimately touch protocol-domain state. *)
                ()
            | Typedtree.Texp_ident (Path.Pident id, _, _) ->
                let k = ident_key id in
                if not (Hashtbl.mem visited k) then begin
                  Hashtbl.add visited k ();
                  let follow tbl =
                    match Hashtbl.find_opt tbl k with
                    | Some exprs ->
                        List.iter (fun e' -> sub.Tast_iterator.expr sub e') exprs
                    | None -> ()
                  in
                  follow tables.let_defs;
                  follow tables.ref_assigns
                end
            | _ -> Tast_iterator.default_iterator.Tast_iterator.expr sub e);
    }
  in
  List.iter (fun a -> it.Tast_iterator.expr it a) args;
  List.rev !tasks

(* ---------- R6: the task-body escape check ---------- *)

(* Idents bound anywhere inside the task (parameters of inner closures,
   local lets, match bindings): accesses to those are job-local. *)
let bound_idents (e : Typedtree.expression) =
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit
      =
   fun sub p ->
    (match p.Typedtree.pat_desc with
    | Typedtree.Tpat_var (id, _) -> Hashtbl.replace bound (ident_key id) ()
    | Typedtree.Tpat_alias (_, id, _) -> Hashtbl.replace bound (ident_key id) ()
    | _ -> ());
    Tast_iterator.default_iterator.Tast_iterator.pat sub p
  in
  let it = { Tast_iterator.default_iterator with Tast_iterator.pat } in
  it.Tast_iterator.expr it e;
  bound

let check_task_r6 ~report ~tables ~task_allows task =
  let body = match closure_body task with Some b -> b | None -> task in
  let bound = bound_idents task in
  let is_captured id = not (Hashtbl.mem bound (ident_key id)) in
  let stack = ref [] in
  let emit ~loc msg =
    report ~rule:"R6-domainescape" ~loc ~allows:(!stack @ task_allows) msg
  in
  let with_allows attrs k =
    let saved = !stack in
    stack := Lint_diag.allows_of_attributes attrs @ saved;
    k ();
    stack := saved
  in
  let snapshot_read id =
    (* A captured ref may be read iff it was let-bound in the submitting
       structure item — i.e. constructed in the submitting scope. *)
    Hashtbl.mem tables.let_defs (ident_key id)
  in
  let on_expr (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_setfield (obj, _, label, _) -> (
        match access_root obj with
        | Some (`Local id) when is_captured id ->
            emit ~loc:e.Typedtree.exp_loc
              (Printf.sprintf
                 "pool job mutates field %s of captured '%s'; jobs must \
                  capture immutable snapshots and publish results only \
                  through the join"
                 label.Types.lbl_name (Ident.name id))
        | Some (`Global g) ->
            emit ~loc:e.Typedtree.exp_loc
              (Printf.sprintf
                 "pool job mutates field %s of module-level state %s"
                 label.Types.lbl_name g)
        | _ -> ())
    | Typedtree.Texp_apply (fn, args) -> (
        match fn.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, _, _) -> (
            let q = Path.name p in
            let pos = positional_args args in
            let first_root () =
              match pos with a :: _ -> access_root a | [] -> None
            in
            match q with
            | "Stdlib.!" -> (
                match first_root () with
                | Some (`Local id) when is_captured id ->
                    if not (snapshot_read id) then
                      emit ~loc:e.Typedtree.exp_loc
                        (Printf.sprintf
                           "pool job reads captured ref '%s' that is not a \
                            snapshot constructed in the submitting scope"
                           (Ident.name id))
                | Some (`Global g) ->
                    emit ~loc:e.Typedtree.exp_loc
                      (Printf.sprintf
                         "pool job reads module-level mutable ref %s" g)
                | _ -> ())
            | "Stdlib.:=" | "Stdlib.incr" | "Stdlib.decr" -> (
                match first_root () with
                | Some (`Local id) when is_captured id ->
                    emit ~loc:e.Typedtree.exp_loc
                      (Printf.sprintf "pool job writes captured ref '%s'"
                         (Ident.name id))
                | Some (`Global g) ->
                    emit ~loc:e.Typedtree.exp_loc
                      (Printf.sprintf
                         "pool job writes module-level mutable ref %s" g)
                | _ -> ())
            | _ -> (
                let offender () =
                  match first_root () with
                  | Some (`Local id) when is_captured id ->
                      Some ("captured '" ^ Ident.name id ^ "'")
                  | Some (`Global g) -> Some ("module-level " ^ g)
                  | _ -> None
                in
                (match module_fn ~m:"Hashtbl" q with
                | Some ("hash" | "seeded_hash" | "create" | "is_randomized")
                | None ->
                    ()
                | Some _ -> (
                    match offender () with
                    | Some who ->
                        emit ~loc:e.Typedtree.exp_loc
                          (Printf.sprintf
                             "pool job calls %s on %s; a hashtable is never \
                              a recognized snapshot — copy it to an \
                              immutable structure before submit"
                             q who)
                    | None -> ()));
                (match module_fn ~m:"Buffer" q with
                | Some "create" | None -> ()
                | Some _ -> (
                    match offender () with
                    | Some who ->
                        emit ~loc:e.Typedtree.exp_loc
                          (Printf.sprintf "pool job calls %s on %s" q who)
                    | None -> ()));
                let flag_writes mutators m =
                  match module_fn ~m q with
                  | Some fn_name when List.mem fn_name mutators -> (
                      match offender () with
                      | Some who ->
                          emit ~loc:e.Typedtree.exp_loc
                            (Printf.sprintf "pool job calls %s on %s" q who)
                      | None -> ())
                  | _ -> ()
                in
                flag_writes array_mutators "Array";
                flag_writes bytes_mutators "Bytes"))
        | _ -> ())
    | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      Tast_iterator.expr =
        (fun sub e ->
          with_allows e.Typedtree.exp_attributes (fun () ->
              on_expr e;
              Tast_iterator.default_iterator.Tast_iterator.expr sub e));
      Tast_iterator.value_binding =
        (fun sub vb ->
          with_allows vb.Typedtree.vb_attributes (fun () ->
              Tast_iterator.default_iterator.Tast_iterator.value_binding sub vb));
    }
  in
  it.Tast_iterator.expr it body

(* ---------- R7: reachability from the task body ---------- *)

let check_task_r7 ~report ~graph ~locals ~task_allows task =
  let body = match closure_body task with Some b -> b | None -> task in
  let roots = Lint_graph.expr_callees ~locals body in
  match Lint_graph.find_forbidden graph ~roots ~forbidden:forbidden_reason with
  | None -> ()
  | Some (chain, reason) ->
      let target =
        match List.rev chain with t :: _ -> t | [] -> "<unknown>"
      in
      let via =
        match chain with
        | [] | [ _ ] -> ""
        | _ -> " (call path: " ^ String.concat " -> " chain ^ ")"
      in
      report ~rule:"R7-parpure" ~loc:task.Typedtree.exp_loc
        ~allows:task_allows
        (Printf.sprintf "pool job reaches %s: %s%s" target reason via)

(* ---------- driver ---------- *)

let check_item ~report ~graph ~locals (si : Typedtree.structure_item) =
  let fanouts = collect_fanouts ~locals si in
  if fanouts <> [] then begin
    let tables = collect_tables si in
    List.iter
      (fun f ->
        List.iter
          (fun task ->
            let task_allows =
              Lint_diag.allows_of_attributes task.Typedtree.exp_attributes
              @ f.f_allows
            in
            check_task_r6 ~report ~tables ~task_allows task;
            check_task_r7 ~report ~graph ~locals ~task_allows task)
          (slice_tasks tables f.f_args))
      fanouts
  end

let check ~report ~graph ~modname (str : Typedtree.structure) =
  let locals = Lint_graph.local_defs ~modname str in
  List.iter (check_item ~report ~graph ~locals) str.Typedtree.str_items
