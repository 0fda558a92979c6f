(** Communication-daemon reserves (§IV-C).

    A reserve is hosted on a unit node distinct from the active daemon's.
    It periodically probes nodes at the destination participant for the
    highest in-order transmission they have committed from us, derives a
    *guaranteed* floor — the value supported by the best set of f+1
    responders (at least one of whom is honest) — and compares it against
    the communication records committed in its own Local Log copy. A
    persistent gap means the active daemon is crashed or maliciously
    delaying messages; the reserve then promotes itself into a full
    communication daemon starting from the guaranteed floor. *)

type t

val create :
  node:Unit_node.t ->
  dest:int ->
  dest_nodes:Bp_sim.Addr.t array ->
  ?geo_proofs:(pos:int -> on_ready:((int * (string * string) list) list -> unit) -> unit) ->
  unit ->
  t
(** Probes every 500 ms and promotes after 3 consecutive gap
    observations. *)

val promoted : t -> bool
