(** Causal profiling, COZ-style: "what would speeding THIS up actually buy
    end-to-end?" answered by experiment, not by share-of-profile.

    A conventional profile ranks code by where cycles are spent; that
    ranking is misleading exactly when the paper's questions are
    interesting (a stall category can be large but off the critical
    ranking, a small function can gate everything behind it).  Causal
    profiling instead runs the unmodified program under a matrix of
    {e virtual speedups}: for each target (a function, or one of the nine
    stall categories) and each factor s, the cycles charged to the target
    are scaled by [1 - s] in the accounting
    ({!Epic_sim.Accounting.experiment}) while the clock, the caches, the
    predictor and the program semantics evolve exactly as in the baseline.
    The observed end-to-end total then directly measures the causal effect
    of a local speedup of s.

    For each target the matrix yields a curve of program speedup
    [p(s) = (base - cycles(s)) / base]; its least-squares slope through
    the origin is the target's {e causal slope} — predicted end-to-end
    fraction gained per unit of local speedup — and targets are ranked by
    it: the report is an ordered "optimize this next" list with the
    evidence attached.

    Exactness invariant (asserted by {!check_local_exactness}): a target
    at factor 1.0 saves exactly the cycles the baseline charged to it.  A
    category experiment at factor 1.0 is also what the sweep's
    [perfect-icache]/[perfect-predictor] variants are, so their savings
    are these deltas. *)

type target = Epic_sim.Accounting.target =
  | Target_func of string
  | Target_category of Epic_sim.Accounting.category
  | Target_func_category of string * Epic_sim.Accounting.category

(** Display/CLI name: the category's accounting name ([front-end], [rse],
    ...), the function's own name, or [func:category] for a
    per-(function, category) pair. *)
val target_name : target -> string

(** Inverse of {!target_name}: a known category name parses as that
    category, [f:cat] (with [cat] a known category name) as a
    per-(function, category) pair, anything else as a function target.
    (A function shadowed by a category name can't be targeted by name —
    acceptable, since the workloads' function names are C identifiers and
    the category names are hyphenated.) *)
val parse_target : string -> target

(** [0.10; 0.25; 0.50; 1.00] — the virtual-speedup factors of the default
    matrix. *)
val default_factors : float list

(** One matrix cell reduced to its point on the target's curve. *)
type point = {
  p_factor : float;  (** local virtual speedup s, in (0, 1] *)
  p_cycles : float;  (** end-to-end accounted cycles under it *)
  p_speedup : float;  (** program speedup p = (base - cycles) / base *)
  p_output_ok : bool;  (** output still matches the reference interpreter *)
}

(** A target's causal curve over the factor axis. *)
type curve = {
  k_target : target;
  k_points : point list;  (** ascending factor *)
  k_local_cycles : float;  (** baseline cycles charged to the target *)
  k_local_share : float;  (** local_cycles / base_cycles *)
  k_slope : float;
      (** causal slope: least-squares fit of p = slope * s through the
          origin — predicted end-to-end fraction per unit local speedup *)
  k_linearity : float;
      (** max |p - slope * s| over the points; small = the virtual
          speedup scales linearly, the slope is trustworthy *)
  k_delta_full : float;
      (** cycles saved at factor 1.0 (the perfect-* limit); taken from
          the measured point when factor 1.0 was run, else extrapolated
          as slope * base *)
}

(** One workload's causal profile: targets ranked by causal slope. *)
type wreport = {
  c_workload : string;
  c_base_cycles : float;
  c_base_categories : float array;  (** the nine baseline category totals *)
  c_obs : Epic_obs.Json.t;
      (** the shared observability block of the baseline run
          ({!Epic_core.Export.obs_to_json}) *)
  c_curves : curve list;  (** ranked: best causal slope first *)
  c_output_ok : bool;  (** baseline output matched the reference *)
}

(** Cross-workload aggregate for one target (only over the workloads whose
    plan included it). *)
type agg = {
  g_target : target;
  g_workloads : int;  (** workloads aggregated *)
  g_mean_slope : float;
  g_rank_best : int;  (** best (lowest) rank across workloads, 1-based *)
  g_rank_worst : int;
}

(** How many (target, factor) cells the detailed simulations paid for
    (DESIGN.md §14). *)
type grid = {
  gr_cells : int;  (** cells delivered *)
  gr_sims : int;  (** detailed simulations run: one baseline per workload *)
}

type report = {
  r_workloads : string list;
  r_factors : float list;  (** ascending *)
  r_reports : wreport list;  (** workload order *)
  r_aggregate : agg list;  (** by descending mean slope *)
  r_grid : grid;
  r_wall_s : float;
}

(** The experiment planner: the top [top_funcs] functions of the baseline
    PC-sampling profile (descending samples), then every stall category
    with nonzero baseline cycles except [unstalled] (speeding up unstalled
    execution is the compiler's job, not a bottleneck diagnosis), then —
    with [split_funcs > 0] — per-(function, category) splits: for each of
    the top [split_funcs] profile-hot functions, one
    {!Target_func_category} per nonzero non-unstalled category of its
    baseline bins ([func_bins], from the baseline accounting), so a
    function's categories can be scaled independently. *)
val plan :
  ?split_funcs:int ->
  ?func_bins:(string * float array) list ->
  top_funcs:int ->
  prof_by_func:(string * int) list ->
  categories:float array ->
  unit ->
  target list

(** Execute the causal matrix on [backend]: one {!Epic_core.Matrix} cell
    per workload, its baseline run with the trace and PC-sampling
    instruments attached, and nothing else.  Each baseline's reducer plans
    the workload's targets from the run's own profile and bins, then reads
    every (target x factor) cell off the run's accounting
    ({!Epic_sim.Machine.read}): an experiment only scales charges that
    nothing in the simulation reads, so it costs no simulation of its own.
    Results are in deterministic workload-major order whatever the
    backend's width.

    [targets] fixes one target list for every workload; omitted, each
    workload gets its own plan ({!plan}, with [top_funcs] profile-hot
    functions, default 3, and [split_funcs] per-(function, category)
    splits, default 0).  [factors] defaults to {!default_factors}.
    [big_inputs] substitutes each workload's scaled evaluation input
    ({!Epic_workloads.Workload.scale}).

    @raise Invalid_argument on an unknown workload, an empty factor list
    or a factor outside (0, 1]. *)
val run :
  ?targets:target list ->
  ?factors:float list ->
  ?top_funcs:int ->
  ?split_funcs:int ->
  ?big_inputs:bool ->
  ?progress:bool ->
  workloads:string list ->
  Epic_core.Matrix.backend ->
  report

(** The target's curve in a workload report, if it was in the plan. *)
val curve_of : wreport -> target -> curve option

(** Cells whose simulated output diverged from the reference interpreter,
    as (workload, target, factor). *)
val mismatches : report -> (string * target * float) list

(** One row of the factor-1.0 local-exactness check: a target measured at
    factor 1.0, the end-to-end cycles it saved, and the baseline cycles
    charged to it. *)
type local_row = {
  lk_workload : string;
  lk_target : target;
  lk_causal : float;  (** measured Δcycles at factor 1.0 *)
  lk_local : float;  (** baseline cycles charged to the target *)
  lk_ok : bool;  (** equal within 1e-9 relative *)
}

(** The factor-1.0 check, for every target kind: scaling a target's
    charges to zero must save exactly the cycles the baseline charged to
    it (within float-summation reassociation, 1e-9 relative).  The
    baseline's own accounting bins, from a run that carried no
    experiment, are the independent side of the identity.  One row per
    (workload, target) with a measured factor-1.0 point. *)
val check_local_exactness : report -> local_row list

(** The causal document.  Schema (stable; additions only): [causal],
    [sample_period], [workloads], [factors], [workload_reports] (workload,
    base_cycles, output_matches, categories, obs, curves — each with
    target, kind, local_cycles, local_share, slope, linearity, delta_full
    and points), [aggregate] and [total_wall_s].  Pass through
    {!Epic_core.Export.normalize_time} before diffing. *)
val to_json : report -> Epic_obs.Json.t

(** Human-readable causal report: per-workload ranked tornado of causal
    slopes (with local share for contrast — the COZ argument is visible
    where they disagree), then the cross-workload aggregate. *)
val print_report : Format.formatter -> report -> unit
