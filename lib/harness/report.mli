(** Experiment reports: the rows/series the paper's tables and figures
    show, side by side with the paper's reference values. *)

type t = {
  id : string;  (** "fig4a", "table2", ... *)
  title : string;
  paper_ref : string;  (** where in the paper this comes from *)
  header : string list;
  rows : string list list;
  notes : string list;
}

val render : t -> string
(** Callers print the result themselves — library code never writes to
    stdout (bplint rule R4). *)

val ms : float -> string
(** "12.3" — millisecond formatting used across reports. *)

val mbps : float -> string
