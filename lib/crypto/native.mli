(** The C surface of [bp_crypto] ([native_stubs.c]): the one module in
    the tree that declares [external]s. Private to the library; {!Sha256}
    wraps its stubs.

    The stubs read raw memory and never allocate: every caller checks its
    bounds before the call. The kernel is chosen once per process from
    the [cpuid] probe, and both kernels give the same results; only host
    time differs. The whole-message stubs write their result
    into a [bytes] the caller allocated. *)

type sha256_kernel = Sha256_portable | Sha_ni
(** The stub reads the constructor as an int: 0 portable C, 1 the x86
    SHA extensions. *)

external sha256_compress :
  sha256_kernel -> int array -> bytes -> int -> int -> unit
  = "bp_sha256_compress"
[@@noalloc]
(** [sha256_compress k h buf off n] folds the [n] 64-byte blocks at
    [buf.[off]] into the 8-word chaining value [h]. *)

external has_sha_ni : unit -> bool = "bp_sha256_has_sha_ni" [@@noalloc]

external sha256_digest : sha256_kernel -> string -> bytes -> unit
  = "bp_sha256_digest"
[@@noalloc]
(** [sha256_digest k s out] writes the digest of all of [s] into the
    first 32 bytes of [out]. *)

external hmac_sha256 : sha256_kernel -> string -> string -> string -> bytes -> unit
  = "bp_hmac_sha256"
[@@noalloc]
(** [hmac_sha256 k inner outer msg out] writes into the first 32 bytes of
    [out] the HMAC of [msg] under the key whose inner and outer pads
    hash to the 40-byte midstates [inner] and [outer]. *)

external hmac_sha256_verify :
  sha256_kernel -> string -> string -> string -> string -> bool
  = "bp_hmac_sha256_verify"
[@@noalloc]
(** [hmac_sha256_verify k inner outer msg tag]: whether [tag] is that
    HMAC, compared in constant time; [false] for a tag that is not 32
    bytes long. *)

(** {1 Unchecked word access}

    Eight- and four-byte loads and stores in native byte order, with no
    bounds check: compiler primitives that become single instructions,
    not C calls. {!Verify_cache} copies and compares its inline keys
    with them, after checking each key's bounds once, and reads and
    writes its index cells with them, at masked positions. *)

external string_get64u : string -> int -> int64 = "%caml_string_get64u"
external bytes_get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external bytes_get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external bytes_set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
