(** Binary wire format combinators.

    Every protocol message in the repository is serialized through this
    module, so message sizes seen by the network simulator are the real
    encoded sizes. Integers use LEB128 varints; strings and lists are
    length-prefixed. Decoding is total: malformed input yields [Error],
    never an exception, because byzantine peers may send arbitrary bytes.

    Encoders are reusable: {!reset} rewinds one without releasing its
    buffer, so a path that retains an encoder allocates nothing but the
    final string. *)

type encoder

val encoder : ?size_hint:int -> unit -> encoder
(** [size_hint] presizes the internal buffer (default 128 bytes) so bulk
    encodes never reallocate mid-write. *)

val reset : encoder -> unit
(** Rewind to empty, keeping the allocated buffer for reuse. *)

val length : encoder -> int
(** Bytes written since creation or the last {!reset}. *)

val to_string : encoder -> string

val unsafe_bytes : encoder -> bytes
(** The encoder's backing buffer, of which only the first {!length} bytes
    are meaningful. Any further write may grow (reallocate) the encoder
    and detach the returned value, so fetch it after the last write. Used
    by {!Frame.seal_with} to patch header words in place. *)

val varint : encoder -> int -> unit
(** Non-negative varint. @raise Invalid_argument on negative input. *)

val zigzag : encoder -> int -> unit
(** Signed varint (zigzag encoding). Total on the whole [int] range,
    including [min_int]. *)

val u8 : encoder -> int -> unit
val bool : encoder -> bool -> unit
val string : encoder -> string -> unit
val fixed : encoder -> string -> unit
(** Raw bytes with no length prefix (both sides must know the length). *)

val varint_size : int -> int
(** Bytes {!varint} writes for a non-negative [n] (1 to 9).
    @raise Invalid_argument on negative input. *)

val string_size : string -> int
(** Bytes {!string} writes for [s]: its length prefix plus its bytes. *)

val list : encoder -> ('a -> unit) -> 'a list -> unit
(** Length-prefixed list; the element encoder writes into the same buffer. *)

val option : encoder -> ('a -> unit) -> 'a option -> unit

type decoder

val decoder : string -> decoder

val decoder_sub : string -> off:int -> len:int -> decoder
(** Decoder over the window [off, off+len) of the string, sharing the
    backing bytes (no copy). Reads are confined to the window; {!at_end}
    means the window is exhausted.
    @raise Invalid_argument when the window is out of bounds. *)

val remaining : decoder -> int
val at_end : decoder -> bool

exception Malformed of string
(** Raised internally by the [read_*] functions; {!decode} converts it to
    [Error]. *)

val read_varint : decoder -> int
(** Rejects encodings longer than 10 bytes or overflowing the
    non-negative [int] range, with a precise error. *)

val read_zigzag : decoder -> int
val read_u8 : decoder -> int
val read_bool : decoder -> bool
val read_string : decoder -> string

val read_string_window : decoder -> int * int
(** {!read_string} without the copy: consumes a length-prefixed string
    and returns its [(offset, length)] in the decoded source, failing
    exactly as {!read_string} would. Pair with {!decode_sub}. *)

val read_fixed : decoder -> int -> string
(** When the read spans the entire input, the original string is returned
    without copying (the bulk-payload fast path). *)

val skip : decoder -> int -> unit
(** Advance past [n] bytes without materializing them. *)

val read_list : decoder -> (decoder -> 'a) -> 'a list
val read_option : decoder -> (decoder -> 'a) -> 'a option

val decode : string -> (decoder -> 'a) -> ('a, string) result
(** Run a reader over the whole input; trailing bytes are an error. *)

val decode_sub :
  string -> off:int -> len:int -> (decoder -> 'a) -> ('a, string) result
(** {!decode} over a window of the input without materializing it as a
    separate string; trailing bytes within the window are an error. *)

val encode : ?size_hint:int -> (encoder -> unit) -> string
(** Run an encoding function over a fresh encoder. When the bytes written
    fill the buffer exactly — [size_hint] was the exact encoded length
    (and at least 16) — the buffer itself is returned, with no final
    copy; it is never written again. Any other hint is still correct,
    just one copy dearer. *)

val encode_calls : unit -> int
(** Monotone count of message serializations started via {!encode},
    across the whole process. Tests use deltas of this counter to assert
    that broadcast paths serialize each message once per broadcast, not
    once per destination. *)
