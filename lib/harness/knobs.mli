(** The run-wide load knobs: one immutable record, built once by the
    executables' shared flag term and passed explicitly from
    {!Experiments.run} to the two Loadgen-driven plans
    (ablation-saturation and ablation-shard). Every other experiment
    fixes its own worlds and takes no knobs. Nothing here is global: two
    runs with different knobs can share a process. *)

type load_shape = [ `Poisson | `Bursty | `Diurnal ]
(** Arrival-process families the load knobs select between (see
    {!Loadgen.process} for their semantics). *)

type t = {
  load_shape : load_shape;
      (** arrival process of Loadgen-driven experiments ([--load-trace]). *)
  load_rate : float option;
      (** when set ([--load-rate]), Loadgen-driven experiments probe this
          single offered rate instead of their built-in sweep. *)
  skew : float;
      (** zipf exponent over the modeled client population ([--skew]);
          0 = uniform. *)
}

val default : t
(** Poisson arrivals over the stock rate sweep, skew 0.99. Every golden
    table is recorded under it. *)
