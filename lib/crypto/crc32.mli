(** CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant).

    Used by the framing layer to detect in-flight corruption, modelling the
    paper's reliance on TCP-style checksums. The register update is a C
    kernel, chosen once when the module initialises: carry-less multiply
    folding (PCLMULQDQ) when the x86 CPU has it, portable C slicing-by-8
    otherwise. Both give the same checksums; only host time differs.
    Safe to call from any number of domains at once. *)

val string : string -> int32

val bytes : bytes -> off:int -> len:int -> int32

val update : int32 -> bytes -> off:int -> len:int -> int32
(** Incremental: feed successive chunks, starting from {!empty}.
    @raise Invalid_argument unless [0 <= off], [0 <= len] and
    [off + len <= Bytes.length buf] (as does {!bytes}). *)

val empty : int32
(** The CRC of the empty string (the initial accumulator). *)

val combine : int32 -> int32 -> int -> int32
(** [combine crc1 crc2 len2] is the CRC of the concatenation [a ^ b] given
    [crc1 = crc a], [crc2 = crc b] and [len2 = String.length b], without
    touching the bytes of either. A few 32-step modular multiplies per set
    bit of [len2] (well under a microsecond even for megabyte suffixes);
    the framing layer uses it to reuse one precomputed payload CRC across
    many per-recipient frames whose headers differ. [len2 = 0] returns
    [crc1].

    @raise Invalid_argument if [len2] is negative. *)

type shift
(** The factor [x^(8·len) mod p] that appending [len] bytes applies to a
    checksum: the part of {!combine} that depends only on [len2]. *)

val shift : int -> shift
(** [shift len] costs what one {!combine} does; each {!combine_shift}
    that reuses it costs one modular multiply. A broadcast computes its
    suffix's shift once and stitches every per-destination frame with it.
    @raise Invalid_argument if [len] is negative. *)

val combine_shift : int32 -> int32 -> shift -> int32
(** [combine_shift crc1 crc2 (shift len2) = combine crc1 crc2 len2] for
    every [len2 > 0], and for [len2 = 0] when [crc2 = empty]. *)

(** The checksum kernels, for differential testing. Everything above
    uses {!Kernel.selected}; nothing selects a kernel at run time. *)
module Kernel : sig
  type t

  val name : t -> string
  (** ["portable"] or ["pclmulqdq"]. *)

  val available : t list
  (** Every kernel this CPU can run, portable first. *)

  val selected : t
  (** The fastest available kernel: the one every other function here
      uses. *)

  val update : t -> int32 -> bytes -> off:int -> len:int -> int32
  (** {!val-update} through the given kernel. *)
end
