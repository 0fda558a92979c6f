(** Deterministic, splittable pseudo-random number generator.

    The whole repository routes randomness through this module so that a
    single seed reproduces every simulation, fault-injection schedule and
    workload bit-for-bit. The core generator is SplitMix64 (Steele et al.,
    OOPSLA 2014), which is small, fast and has a well-understood split
    operation. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator; [t] itself advances, so
    successive splits are independent of each other. *)

val copy : t -> t
(** Duplicate the current state (both copies then produce the same stream). *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed positive float with the given mean. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] pseudo-random bytes. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

