(** The experiment registry: every table and figure of §VIII, by id —
    the only way to run an experiment, and its rendered {!Report.t}
    tables the only output.

    Each experiment is registered as a {!Runner.plan} factory — a sweep
    decomposed into independent single-simulation tasks — so a run can
    be executed sequentially or fanned out over domains by
    {!Bp_parallel.Pool.run} with bit-identical output. *)

type t = {
  id : string;
  title : string;
  plan : knobs:Knobs.t -> scale:float -> Runner.plan;
      (** only ablation-saturation and ablation-shard read [knobs]; every
          other experiment fixes its own worlds *)
}

val all : t list
(** In paper order: table1, fig4, table2, fig5, fig6, fig7, fig8 — then
    the seven ablations (ablation-reads, -batch, -sig, -loss,
    -saturation, -pipeline, -shard), then locality and costs. *)

val find : string -> t option

val run :
  ?jobs:int ->
  ?knobs:Knobs.t ->
  t ->
  scale:float ->
  Report.t list
(** Execute one experiment on up to [jobs] domains (default 1: inline).
    Output is identical at every job count. [knobs] (default
    {!Knobs.default}) reaches the two Loadgen-driven plans. *)
