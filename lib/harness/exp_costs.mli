(** §VI-D — performance and monetary costs.

    The paper discusses (without measuring) what byzantizing costs in
    resources: 3fi extra nodes per participant, local-commitment message
    rounds on every commit and communication, and geo-proof traffic when
    fg > 0. This experiment measures those costs directly from the
    network counters: nodes provisioned, messages and bytes on the wire
    per [log-commit] and per [send], across (fi, fg) configurations. *)

val costs_plan : knobs:Knobs.t -> scale:float -> Runner.plan
(** One task per (fi, fg) configuration, each a {!Runner.fresh_world}
    with [knobs] at pipeline depth 8. *)

val costs : ?scale:float -> unit -> Report.t list
