(** [bplint]: repo-specific static analysis over the typed [.cmt] ASTs that
    dune produces for every library.

    Blockplane's correctness argument rests on deterministic, replayable
    state-machine replication: every replica must make the same decision
    from the same log, and simulator experiments must be byte-reproducible.
    These rules machine-check the hazards that previously had to be caught
    by hand in review:

    - [R1-polycmp]: polymorphic [compare]/[=]/[Hashtbl.hash] (and the
      [List.mem]/[List.assoc] family, which call them internally) applied
      at a non-primitive type. Slow on the hot path, and order/structure
      sensitive in ways monomorphic comparisons are not.
    - [R2-nondet]: nondeterminism escape hatches: [Random.*], [Sys.time],
      [Unix.gettimeofday], [Hashtbl.randomize],
      [Hashtbl.create ~random:true].
    - [R2-hiter]: order-dependent [Hashtbl.iter]/[Hashtbl.fold] in protocol
      code, where iteration order can leak into protocol state.
    - [R2-domain]: multicore primitives ([Domain.*], [Atomic.*], [Mutex.*],
      [Condition.*]) outside [lib/parallel] and [lib/crypto/verify_batch].
      Replicas and the simulator are single-domain deterministic; the only
      shared-memory code allowed is the audited worker pool and the
      mutex around [Verify_batch]'s stats.
    - [R3-partial]: partial functions ([Option.get], [List.hd], [List.tl],
      [List.nth]) on verification/consensus paths.
    - [R3-catchall]: [try ... with _ ->] catch-alls that turn programming
      errors into silently-accepted "Byzantine" input.
    - [R4-print]: direct [print_*]/[Printf.printf]/[Format.printf] output
      from library code (libraries must use [Logs]).
    - [R4-mli]: a library module compiled without an [.mli].
    - [R5-rawverify]: a bare [Signer.verify] outside [lib/crypto], which
      bypasses the verification cache and its invalidation discipline.
    - [R6-domainescape] (interprocedural): a closure handed to the
      domain pool ([Pool.run]/[Pool.map]) captures mutable state that is
      not a submit-scope snapshot — ref reads/writes, mutable record
      fields, [Hashtbl]/[Buffer]/[Bytes]/[Array] access.
    - [R7-parpure] (interprocedural): a pool job reaches — through any
      chain of calls in the cross-module call graph — a
      protocol-domain-only operation: [Verify_cache] access, [Signer]
      keystore access (only [verify_key] is domain-safe), network sends,
      the simulator engine/clock, [Random]/shared [Rng] streams, wall
      clocks. [[@@bplint.parallel_pure]] on a binding is the audited
      escape hatch.
    - [R9-external]: an [external] declaration anywhere but
      [lib/crypto/sha256.ml], whose C stubs are the tree's only foreign
      code.

    Suppression: a site can carry [[@bplint.allow "RULE ..."]] (on the
    expression or enclosing [let]); whole files can be excused in an
    allowlist file of [RULE path-pattern] lines, where the pattern is
    anchored on whole path segments (see {!Lint_diag.path_matches}). *)

type diagnostic = Lint_diag.diagnostic = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

val all_rules : string list
(** Every rule id known to the linter. *)

val to_string : diagnostic -> string
(** ["file:line:col: [rule] message"] — one line per finding. *)

type allowlist = Lint_diag.allowlist

val empty_allowlist : allowlist

val allowlist_of_lines : string list -> allowlist
(** Each non-empty, non-[#] line is [RULE path-pattern] (trailing words
    are a free-form comment). [RULE] matches by prefix, so [R2] excuses
    both [R2-nondet] and [R2-hiter]; the pattern matches whole path
    segments, never substrings. *)

val load_allowlist : string -> allowlist
(** Read an allowlist file from disk. Missing file = empty allowlist. *)

type graph = Lint_graph.t
(** Cross-module call graph for the interprocedural rules (R6/R7). *)

val empty_graph : graph

val build_graph : string list -> graph
(** Build the call graph from a list of [.cmt] paths. *)

val graph_size : graph -> int * int
(** (definitions, edges). *)

val policy : source:string -> string list
(** The repo policy: which rules apply to a source path (as recorded in
    the [.cmt], e.g. ["lib/pbft/replica.ml"]). [lib/] gets the full
    per-directory matrix; [bench/], [bin/] and [tools/] get a baseline
    (determinism, totality, and the parallel-purity rules; [tools/]
    non-[main] modules also need an [.mli]); lint fixtures get none. *)

val lint_cmt :
  ?allowlist:allowlist ->
  ?graph:graph ->
  rules:string list ->
  string ->
  diagnostic list
(** [lint_cmt ~rules path] reads one [.cmt] file and returns the findings
    for the requested rules, already filtered through [allowlist] and any
    [[@bplint.allow]] attributes. R6/R7 need [graph] for multi-hop
    reachability (without it they still catch direct violations).
    Generated modules (dune's [*.ml-gen] alias modules) yield no
    findings. *)

type scan_stats = {
  files_scanned : int;
  graph_defs : int;
  graph_edges : int;
  rule_hits : (string * int) list;
}

val scan :
  ?allowlist:allowlist -> root:string -> unit -> diagnostic list * scan_stats
(** Walk [root]'s lib/, bench/, bin/ and tools/ for every [.cmt] dune
    produced, build the cross-module call graph over all of them, apply
    [policy] to each file, and return all findings sorted by file/line,
    plus scan statistics for [--stats]. *)
