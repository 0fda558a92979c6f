(** PBFT client: submits operations and waits for f+1 matching replies
    from distinct replicas (up to f replies might come from liars, so one
    of f+1 identical answers is honest — §II). Retransmits to all replicas
    on timeout, which is also what triggers view changes against a faulty
    primary. *)

type t

val create : cache:Bp_crypto.Verify_cache.t -> Bp_net.Transport.t -> Config.t -> t
(** Installs the reply handler (tag [cfg.tag ^ ".reply"]). One client per
    transport endpoint per cluster. [cache] signs requests and checks
    replies, memoizing verdicts; how much it keeps never changes any
    produced byte or verdict. *)

val submit : t -> ?kind:int -> string -> on_result:(string -> unit) -> unit
(** Fire an operation ([kind] is the Blockplane record annotation,
    default 0). [on_result] fires exactly once, with the replicated
    result, once f+1 matching replies arrive. *)

val in_flight : t -> int
(** Requests not yet answered. *)
