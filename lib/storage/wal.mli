(** Write-ahead log images with crash recovery.

    A log's image (standing in for a disk file in the simulation) is the
    concatenation of [Frame.seal] of every record, in order. Recovery
    scans from the start and stops at the first torn or corrupt record,
    recovering exactly the durable prefix — the semantics Blockplane
    nodes need to restart after a crash (§VI-B).

    Nothing is kept between calls: a unit node's durable log is its Local
    Log, framed only when an image is asked for (recovery, fault
    injection or a probe). *)

val image : string list -> string
(** The image of a log holding these records, in order: one allocation
    of the image's size, each record's CRC computed as its frame is
    written. *)

val recover : string -> string list * int
(** Parse a (possibly damaged) image: every intact record up to the
    first torn or corrupt one, in order, and the count of trailing bytes
    discarded. *)
