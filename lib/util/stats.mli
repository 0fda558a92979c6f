(** Online sample collection and summary statistics for experiments. *)

type t
(** A mutable bag of float samples. *)

val create : unit -> t

val add : t -> float -> unit

val add_list : t -> float list -> unit

val count : t -> int

val is_empty : t -> bool

val mean : t -> float
(** Arithmetic mean. @raise Invalid_argument if empty. *)

val stddev : t -> float
(** Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples. *)

val min : t -> float

val max : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0, 100\]], linear interpolation between
    order statistics. @raise Invalid_argument if empty. *)

val median : t -> float

val total : t -> float
(** Sum of all samples. *)

val samples : t -> float array
(** A sorted copy of the samples. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

val summarize : t -> summary
(** @raise Invalid_argument if empty. *)
