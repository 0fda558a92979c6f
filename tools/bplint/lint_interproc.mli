(** R6-domainescape / R7-parpure: the domain-pool task discipline
    (capture immutable snapshots, never reach protocol-domain state),
    statically enforced over the closures that flow into
    [Pool.run]/[Pool.map]. See DESIGN.md §7, "Parallel purity", for the
    semantics and the limits of the analysis. *)

type report_fn =
  rule:string -> loc:Location.t -> allows:string list -> string -> unit
(** Findings are emitted through this callback; [allows] carries the
    [[@bplint.allow]] prefixes in force at the site, for the caller's
    suppression logic. *)

val rules : string list
(** [["R6-domainescape"; "R7-parpure"]]. *)

val forbidden_reason : string -> string option
(** Why a normalized qualified name is protocol-domain-only (R7), or
    [None] if it is fine to call from a pool job. Exposed for tests. *)

val check :
  report:report_fn ->
  graph:Lint_graph.t ->
  modname:string ->
  Typedtree.structure ->
  unit
(** Run both passes over one implementation. [modname] must be the
    normalized module name (used to qualify same-module calls the way
    [graph] names them). With [graph = Lint_graph.empty], R6 and the
    direct-call portion of R7 still work; only multi-hop reachability
    needs a built graph. *)
