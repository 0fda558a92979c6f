(** Reference SHA-256 (boxed Int32, literal FIPS 180-4 transcription).

    Retained as the test suite's differential-testing oracle for the
    optimized [Bp_crypto.Sha256]. Not for production use — it allocates
    an [Int32] per arithmetic step. *)

type ctx

val init : unit -> ctx
val update : ctx -> string -> unit
val update_bytes : ctx -> bytes -> off:int -> len:int -> unit
val finalize : ctx -> string

val digest : string -> string
(** One-shot hash; 32 raw bytes. *)

val digest_list : string list -> string
val hex : string -> string
val digest_length : int
