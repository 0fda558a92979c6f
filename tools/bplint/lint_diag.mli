(** Shared diagnostic machinery for the bplint passes: the finding record,
    text/JSON rendering, the file allowlist (path-segment anchored), and
    the CI baseline. [Lint] re-exports the user-facing parts. *)

type diagnostic = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

val to_string : diagnostic -> string
(** ["file:line:col: [rule] message"] — one line per finding. *)

val compare_diag : diagnostic -> diagnostic -> int
(** Sort key: file, then (line, col, rule). *)

val diag_to_json : diagnostic -> string
(** One finding as a JSON object [{rule, file, line, col, message}]. *)

val findings_json : diagnostic list -> string
(** JSON array of {!diag_to_json} objects, in list order. *)

val json_string : string -> string
(** JSON-quoted, escaped string literal. *)

type allowlist

val empty_allowlist : allowlist

val allowlist_of_lines : string list -> allowlist
(** Each non-empty, non-[#] line is [RULE path-pattern] (trailing words
    are a free-form comment). [RULE] matches by prefix, so [R2] excuses
    both [R2-nondet] and [R2-hiter]. *)

val load_allowlist : string -> allowlist
(** Read an allowlist file from disk. Missing file = empty allowlist. *)

val path_matches : pattern:string -> string -> bool
(** Anchored on ['/']-separated path segments: the pattern's segments
    must equal a contiguous run of the file's segments, except that the
    final pattern segment may also match a segment with its extension
    stripped (["verify_batch"] matches ["lib/crypto/verify_batch.ml"]
    but not ["lib/crypto/verify_batchx.ml"]). *)

val allowlisted : allowlist -> rule:string -> file:string -> bool

type baseline

val empty_baseline : baseline

val baseline_of_lines : string list -> baseline
(** Each non-comment line is [RULE<TAB>FILE<TAB>MESSAGE]; line/col are
    deliberately absent so entries survive unrelated code motion. *)

val load_baseline : string -> baseline
(** Read a baseline file from disk. Missing file = empty baseline. *)

val baseline_lines : diagnostic list -> string list
(** Serialize findings (plus an explanatory header) for
    [--update-baseline]. *)

val filter_baseline : baseline -> diagnostic list -> diagnostic list
(** Drop findings whose (rule, file, message) appear in the baseline —
    what remains is the set of {e new} findings CI must fail on. *)

val allows_of_attributes : Parsetree.attributes -> string list
(** Rule prefixes named by [[@bplint.allow "R1 R2-nondet"]] attributes. *)
