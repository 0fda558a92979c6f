(** Virtual time. A point in time and a duration share the same
    representation: integer nanoseconds since simulation start. *)

type t = private int

val zero : t
val of_ns : int -> t
val of_ms : float -> t
val of_sec : float -> t

val to_ns : t -> int
val to_ms : t -> float
val to_sec : t -> float

val add : t -> t -> t
val diff : t -> t -> t
(** [diff a b] is [a - b]. @raise Invalid_argument if negative. *)

val scale : t -> float -> t
val max : t -> t -> t
val compare : t -> t -> int
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Human-friendly: "12.345ms". *)
