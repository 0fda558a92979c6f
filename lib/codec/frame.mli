(** Length-prefixed, CRC32-protected frames.

    This is the corruption-detection layer the paper delegates to TCP:
    every message crossing the simulated network travels inside a frame,
    and a frame whose checksum does not match its payload is dropped by the
    receiver (surfacing as a message loss, which the reliable-channel layer
    then recovers by retransmission). *)

val overhead : int
(** Bytes added around a payload (magic + length + checksum). *)

val seal : string -> string
(** Wrap a payload into a frame. *)

val seal_into : bytes -> off:int -> string -> unit
(** [seal_into dst ~off payload] writes [seal payload] into [dst] at
    [off]. For images assembled from many frames in one buffer (the
    WAL).
    @raise Invalid_argument if the frame does not fit in [dst] at [off]. *)

val seal_with : Wire.encoder -> (Wire.encoder -> unit) -> string
(** [seal_with enc write] builds a frame by running [write] directly
    after the header inside [enc] (resetting it first), then patching the
    length and checksum in place — equivalent to
    [seal (Wire.encode write)] but with no intermediate payload string:
    the only allocation is the returned copy of [enc]'s contents (plus
    [enc]'s growth, if the frame outgrows it). [enc] is typically a
    retained scratch encoder; its contents are clobbered. The transport
    builds a frame's bytes this way only when something reads them. *)

val unseal : string -> (string, [ `Corrupt | `Malformed ]) result
(** Recover the payload. [`Corrupt] means the checksum failed (in-flight
    bit-flips); [`Malformed] means the framing structure itself is broken. *)

val unseal_prefix :
  string -> off:int -> (string * int, [ `Corrupt | `Malformed ]) result
(** Parse one frame starting at [off] in a longer buffer (e.g. a WAL
    image); on success returns the payload and the total frame length
    consumed. *)

val unseal_sub :
  string -> off:int -> (int * int, [ `Corrupt | `Malformed ]) result
(** Like {!unseal_prefix} but without materializing the payload: on
    success returns [(payload_off, payload_len)] into the original buffer,
    checksum already validated. Pair with {!Wire.decoder_sub} to decode a
    received frame with zero payload copies. *)
