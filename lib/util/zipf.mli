(** Zipf-distributed sampling over ranks [0, n-1] (rank 0 most popular),
    P(rank k) proportional to (k+1)^(-s).

    Uses rejection-inversion (Hörmann & Derflinger 1996): O(1) setup and
    O(1) expected {!Rng.t} draws per sample at any population size —
    what lets the load harness model 10^5..10^7 clients without
    per-client state or inverse-CDF tables. Exponent 0 degenerates to
    the uniform distribution; s ~ 0.99 is the classic YCSB skew. *)

type t

val create : n:int -> s:float -> t
(** Sampler over ranks [0, n-1] with exponent [s].
    @raise Invalid_argument when [n < 1] or [s] is negative or non-finite. *)

val sample : t -> Rng.t -> int
(** Draw a rank in [0, n-1]. Deterministic given the rng state; draws a
    geometric(~1) number of rng variates (1 draw in the common case). *)
