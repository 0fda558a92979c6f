type sha256_kernel = Sha256_portable | Sha_ni

external sha256_compress :
  sha256_kernel -> int array -> bytes -> int -> int -> unit
  = "bp_sha256_compress"
[@@noalloc]

external has_sha_ni : unit -> bool = "bp_sha256_has_sha_ni" [@@noalloc]

external sha256_digest : sha256_kernel -> string -> bytes -> unit
  = "bp_sha256_digest"
[@@noalloc]

external hmac_sha256 : sha256_kernel -> string -> string -> string -> bytes -> unit
  = "bp_hmac_sha256"
[@@noalloc]

external hmac_sha256_verify :
  sha256_kernel -> string -> string -> string -> string -> bool
  = "bp_hmac_sha256_verify"
[@@noalloc]

external string_get64u : string -> int -> int64 = "%caml_string_get64u"
external bytes_get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external bytes_get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external bytes_set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
