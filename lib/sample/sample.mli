(** Measured-vs-extrapolated accuracy harness for sampled simulation: run
    each workload in full and under interval sampling on the same compiled
    binary, compare the cycle accountings, and judge the result against the
    CI-enforced error budgets (DESIGN.md §13, EXPERIMENTS.md). *)

val total_budget : float
(** Geomean total-cycle relative-error budget (0.02). *)

val cat_budget : float
(** Per-category error budget, normalized by the full run's total (0.05). *)

type row = {
  r_workload : string;
  r_full_cycles : float;
  r_sampled_cycles : float;
  r_total_err : float;  (** |sampled - full| / full *)
  r_cat_err : float array;
      (** per category, |delta| / full total (length 9, {!Epic_sim.Accounting.index} order) *)
  r_max_cat_err : float;
  r_detail_fraction : float;  (** detailed groups / total groups *)
  r_full_wall_s : float;
  r_sampled_wall_s : float;
  r_speedup : float;  (** full wall / sampled wall *)
  r_output_ok : bool;  (** sampled exit code and output match the full run *)
  r_ci95_rel : float;  (** the sampled run's own CI95 bound / its estimate *)
}

type report = {
  plan : Epic_sim.Sampling.plan;
  rows : row list;
  geomean_err : float;  (** geomean of (1 + err) - 1 over workloads *)
  worst_cat_err : float;
  geomean_speedup : float;
  pass : bool;
      (** outputs all exact, geomean within {!total_budget}, every category
          within {!cat_budget} *)
}

(** Measure [workloads] (default: the full 12-benchmark suite) under
    [plan] (default {!Epic_sim.Sampling.default_plan}): per workload, a
    full and a sampled {!Epic_core.Matrix} cell on one compile key, each
    timed by its simulation's host block.  At a [backend] width above 1
    the wall-clock speedups are cross-domain noisy; CI runs width 1 for
    trustworthy timing. *)
val run :
  ?plan:Epic_sim.Sampling.plan ->
  ?workloads:Epic_workloads.Workload.t list ->
  Epic_core.Matrix.backend ->
  report

val to_json : report -> Epic_obs.Json.t
val print : Format.formatter -> report -> unit
