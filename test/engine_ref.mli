(** Reference event engine: the original [Bp_sim.Engine], retained as
    the test suite's model for the production engine. Driven with the
    same calls, the two must fire the same actions in the same order and
    report the same [now], [pending] and [cancelled_backlog] after every
    step. Not for production use. *)

open Bp_sim

(** The discrete-event simulation engine.

    Events are closures scheduled at virtual times. Two events at the same
    instant fire in scheduling order (a monotone sequence number breaks
    ties), which — together with {!Bp_util.Rng} — makes whole simulations
    deterministic for a given seed. *)

type t

type timer
(** Handle for a scheduled event; can be cancelled before it fires. *)

val create : ?seed:int64 -> unit -> t
(** Default seed is 1. *)

val now : t -> Time.t

val rng : t -> Bp_util.Rng.t
(** The engine's root generator; split it per component. *)

val schedule : t -> after:Time.t -> (unit -> unit) -> timer
(** Fire the closure [after] virtual time from now. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> timer
(** Fire at an absolute time, which must not be in the past. *)

val periodic : t -> every:Time.t -> (unit -> unit) -> timer
(** Fire repeatedly until cancelled. The first firing is [every] from now. *)

val cancel : timer -> unit
(** Idempotent; cancelling a fired timer is a no-op. *)

val pending : t -> int
(** Live (uncancelled, unfired) events. O(1): a counter maintained on
    schedule, fire and cancel, not a heap scan. *)

val cancelled_backlog : t -> int
(** Cancelled events still occupying heap slots. Normally discarded
    lazily as they surface; once they exceed an internal threshold and
    outnumber live events, the heap is compacted eagerly. Exposed for
    the engine micro-benchmarks and tests. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Drain the queue. [until] stops the clock at that instant (events beyond
    it stay queued); [max_events] bounds work as a runaway guard
    (default 50 million). *)

val step : t -> bool
(** Execute the single next event; [false] if the queue is empty. *)
