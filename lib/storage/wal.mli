(** Write-ahead log encoding with crash recovery.

    Serializes a sequence of records into a byte image (standing in for a
    disk file in the simulation) as CRC-framed records. Recovery scans from
    the start and stops at the first torn or corrupt record, recovering
    exactly the durable prefix — the semantics Blockplane nodes need to
    restart after a crash (§VI-B).

    Memory holds each record's payload (shared with the caller, not
    copied) and its CRC, computed once at {!append}. The framed image is
    built only when {!contents} asks for it: recovery, fault injection or
    a probe. *)

type t

val create : unit -> t

val append : t -> string -> unit

val size : t -> int
(** Bytes of the on-disk image, without building it. *)

val contents : t -> string
(** The raw image (what would be on disk): the concatenation of
    [Frame.seal] of every record, in append order. Built fresh on each
    call, one allocation of {!size} bytes and no checksum pass. *)

val of_contents : string -> t * int
(** Rebuild from a (possibly damaged) image. Returns the WAL holding every
    intact record plus the count of trailing bytes discarded. *)

val records : t -> string list

val truncate_tail : t -> int -> t
(** [truncate_tail t n] simulates a crash that lost the last [n] bytes. *)

val corrupt_byte : t -> int -> t
(** Flip one byte of the image at the given offset (fault injection). *)
