(** Hexadecimal encoding of byte strings. *)

val encode : string -> string
(** Lower-case hex of every byte, e.g. [encode "\xab" = "ab"]. *)

val decode : string -> string
(** Inverse of {!encode}. Accepts upper or lower case.
    @raise Invalid_argument on odd length or non-hex characters. *)
