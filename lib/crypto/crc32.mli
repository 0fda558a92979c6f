(** CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant).

    Used by the framing layer to detect in-flight corruption, modelling the
    paper's reliance on TCP-style checksums. Portable OCaml, one table
    lookup per input byte. Safe to call from any number of domains at
    once. *)

val string : string -> int32

val bytes : bytes -> off:int -> len:int -> int32

val update : int32 -> bytes -> off:int -> len:int -> int32
(** Incremental: feed successive chunks, starting from {!empty}.
    @raise Invalid_argument unless [0 <= off], [0 <= len] and
    [off + len <= Bytes.length buf] (as does {!bytes}). *)

val empty : int32
(** The CRC of the empty string (the initial accumulator). *)
