(** Eager reference for {!Bp_harness.Loadgen.run}: the full arrival
    sequence a generator produces, materialised up front (O(count)
    memory — test-sized runs only), timed from [Time.zero] — the start
    of a fresh engine.

    Retained as the test suite's oracle for the streaming scheduler:
    draw order per arrival matches [Loadgen.run] exactly, so for equal
    seeds the streamed arrivals are identical. *)

type arrival = { index : int; client : int; at : Bp_sim.Time.t }

val plan : rng:Bp_util.Rng.t -> Bp_harness.Loadgen.spec -> arrival array
