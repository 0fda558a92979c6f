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
      sensitive in ways monomorphic comparisons are not. Also
      [Stdlib.min]/[Stdlib.max] at every type: they call polymorphic
      compare even at [int].
    - [R2-nondet]: nondeterminism escape hatches: [Random.*], [Sys.time],
      [Unix.gettimeofday], [Hashtbl.randomize],
      [Hashtbl.create ~random:true].
    - [R2-hiter]: order-dependent [Hashtbl.iter]/[Hashtbl.fold] in protocol
      code, where iteration order can leak into protocol state.
    - [R2-domain]: multicore primitives ([Domain.*], [Atomic.*], [Mutex.*],
      [Condition.*]) outside [lib/parallel] and [lib/crypto/verify_batch].
      Replicas and the simulator are single-domain deterministic; the only
      shared-memory code allowed is the audited [-j] fork-join and the
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
    - [R6-planescape]: in a structure item that constructs a
      [Runner.Plan], a [fun () -> ...] closure writes a value bound
      outside it ([:=], [incr]/[decr], a mutable field, a
      [Hashtbl]/[Array]/[Bytes]/[Buffer] mutator). Plan tasks run on
      any domain in any order; sharing state would make the tables
      depend on [-j].
    - [R8-harnessglobal]: module-level mutable state in [lib/harness] or
      [lib/crypto].
    - [R9-external]: an [external] declaration anywhere but
      [lib/crypto/native.ml], whose C stubs are the tree's only foreign
      code.
    - [R10-accept]: in [lib/core] and [lib/apps], a verification routine
      that accepts without judging: a match arm or function case whose
      body is the literal [true], inside a [verifier] or inside the
      [verify] of a structure shaped like [App.S] (one that binds
      [verify], [apply] and [digest]). Each such [true] needs an allow
      attribute and a comment saying why accepting is safe.

    Suppression: a site can carry [[@bplint.allow "RULE ..."]] (on the
    expression or enclosing [let]); the rule names match by prefix, so
    [R2] excuses both [R2-nondet] and [R2-hiter]. It is the only
    suppression. *)

type diagnostic = {
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

val path_matches : pattern:string -> string -> bool
(** Anchored on ['/']-separated path segments: the pattern's segments
    must equal a contiguous run of the file's segments, except that the
    final pattern segment may also match a segment with its extension
    stripped (["verify_batch"] matches ["lib/crypto/verify_batch.ml"]
    but not ["lib/crypto/verify_batchx.ml"]). The R2-domain and
    R9-external exemptions in {!policy} are matched this way. *)

val policy : source:string -> string list
(** The repo policy: which rules apply to a source path (as recorded in
    the [.cmt], e.g. ["lib/pbft/replica.ml"]). [lib/] gets the full
    per-directory matrix; [bench/], [bin/] and [tools/] get a baseline
    (determinism, totality and R6-planescape; [tools/] non-[main]
    modules also need an [.mli]); lint fixtures get none. *)

val lint_cmt : rules:string list -> string -> diagnostic list
(** [lint_cmt ~rules path] reads one [.cmt] file and returns the findings
    for the requested rules, already filtered through any
    [[@bplint.allow]] attributes. Generated modules (dune's [*.ml-gen]
    alias modules) yield no findings. *)

type scan_stats = {
  files_scanned : int;
  plan_sites : int;
      (** structure items constructing a [Runner.Plan] that R6-planescape
          inspected: a coverage count, so the rule cannot go dead
          silently *)
  rule_hits : (string * int) list;
}

val lint_files : rules:string list -> string list -> diagnostic list * scan_stats
(** {!lint_cmt} over several files, with findings sorted by file/line
    and statistics for [--stats]. *)

val scan : root:string -> diagnostic list * scan_stats
(** Walk [root]'s lib/, bench/, bin/ and tools/ for every [.cmt] dune
    produced, apply [policy] to each file, and return all findings
    sorted by file/line, plus scan statistics for [--stats]. *)
