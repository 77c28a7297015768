(** Machine-sensitivity sweeps: a declarative experiment matrix of named
    machine-description variants (one knob of {!Epic_mach.Machine_desc}
    turned at a time) crossed with compiler ablations (one
    {!Epic_core.Config} knob), run as one {!Epic_core.Matrix} cell list,
    producing per-cell
    stall-category deltas against the [itanium2 x ILP-CS] baseline and a
    geomean tornado ordering.

    Each variant isolates one machine assumption behind a paper finding:
    [perfect-icache] and [perfect-predictor] are not machines but category
    suppressions — the itanium2 simulation carrying one factor-1.0
    category experiment ({!Epic_sim.Accounting.experiment}), so the clock
    and all cache/predictor state evolve exactly as in the baseline, the
    deltas are confined to exactly the targeted category and the total can
    never exceed the baseline.  The geometry variants ([half-l2], [tiny-dtlb],
    [no-rse-backing], [2x-mem-latency]) change the simulated machine and
    recompile under it, so their effects may spread across categories. *)

type expect = [ `Faster | `Slower | `Either ]

(** A named machine variant. *)
type variant = {
  v_name : string;
  v_desc : Epic_mach.Machine_desc.t;
  v_isolates : string;
      (** one line: which paper finding this variant isolates *)
  v_targets : Epic_sim.Accounting.category list;
      (** the stall categories this variant is aimed at; for the perfect-*
          variants the deltas are provably confined to these *)
  v_suppresses : Epic_sim.Accounting.category option;
      (** [Some c]: a category suppression — the cell is the (itanium2,
          same ablation) simulation with [c]'s charges scaled to zero,
          and [v_desc] is {!Epic_mach.Machine_desc.itanium2} under this
          variant's name.  [None]: the cell simulates [v_desc]. *)
  v_expect : expect;
      (** sign of the expected total-cycle effect vs the baseline *)
}

(** A named compiler ablation: a tweak applied to the workload's ILP-CS
    configuration. *)
type ablation = Epic_core.Config.ablation = {
  a_name : string;
  a_isolates : string;
      (** one line: which paper finding this ablation isolates *)
  a_tweak : Epic_core.Config.t -> Epic_core.Config.t;
}

(** The built-in machine variants, in canonical order: [perfect-icache],
    [perfect-predictor], [half-l2], [no-rse-backing], [2x-mem-latency],
    [tiny-dtlb]. *)
val variants : variant list

(** The built-in compiler ablations, {!Epic_core.Config.ablations} (the
    list the [ablations] artifact runs too): the identity baseline
    [ILP-CS] first, then [no-hyperblock], [no-peel], [no-unroll],
    [no-tail-dup], [no-inline], [no-height-red]. *)
val ablations : ablation list

(** [itanium2], targets nothing. *)
val baseline_variant : variant

(** [ILP-CS], the identity tweak. *)
val baseline_ablation : ablation

val find_variant : string -> variant option
val find_ablation : string -> ablation option

(** One executed matrix cell. *)
type cell = {
  c_workload : string;
  c_variant : string;
  c_ablation : string;
  c_cycles : float;  (** total accounted cycles *)
  c_categories : float array;  (** the nine accounting categories *)
  c_output_ok : bool;
      (** simulated output still matches the reference interpreter *)
  c_fused : bool;
      (** this suppression cell rode the itanium2 simulation of its
          (workload, ablation) as a fused experiment (DESIGN.md §14)
          instead of paying for a simulation of its own *)
  c_obs : Epic_obs.Json.t;
      (** the shared observability block ({!Epic_core.Export.obs_to_json}):
          exact trace event counts and the PC-sampling profile of this
          cell's run.  Observation-only — attaching the instruments changes
          no counter or cycle. *)
}

type row = {
  t_variant : string;
  t_ablation : string;
  t_geomean_ratio : float;  (** geomean over workloads of cycles/baseline *)
}

type report = {
  r_workloads : string list;
  r_variants : variant list;
  r_ablations : ablation list;
  r_baseline : cell list;  (** one baseline cell per workload, suite order *)
  r_cells : cell list;  (** non-baseline cells, workload-major order *)
  r_tornado : row list;  (** (variant, ablation) combos by descending effect *)
  r_fused_cells : int;  (** cells delivered by fused experiments *)
  r_sims : int;
      (** detailed simulations run; every cell, baseline included, minus
          this is the [sims_saved] of {!to_json} *)
  r_wall_s : float;  (** wall-clock seconds *)
}

(** Execute the matrix through {!Epic_core.Matrix.run} on [backend]: the
    per-workload baseline cell plus [workloads x variants x ablations].  A
    suppression cell is the itanium2 cell of its (workload, ablation)
    carrying a factor-1.0 category experiment, so the planner merges it
    into that simulation — which runs even when the itanium2 cell itself
    is not in the matrix.  Every other cell compiles and simulates on its
    own.  Results are in deterministic workload-major order whatever the
    backend's width.

    [sampling] runs every cell under interval sampling: cell cycles and
    categories become extrapolated estimates, which trades a bounded
    accuracy budget (EXPERIMENTS.md) for simulation speed on wide
    matrices.  [big_inputs] substitutes each workload's scaled evaluation
    input ({!Epic_workloads.Workload.scale}).

    @raise Invalid_argument on an unknown workload name. *)
val run :
  ?variants:variant list ->
  ?ablations:ablation list ->
  ?sampling:Epic_sim.Sampling.plan ->
  ?big_inputs:bool ->
  ?progress:bool ->
  workloads:string list ->
  Epic_core.Matrix.backend ->
  report

(** The baseline cell for a workload.  @raise Not_found if absent. *)
val baseline_of : report -> string -> cell

(** Cells whose simulated output diverged from the reference. *)
val mismatches : report -> cell list

(** The sensitivity document.  Schema (stable; additions only):
    [sweep], [baseline] (variant/ablation names), [workloads], [variants]
    (name, isolates, targets, expect, suppresses — a category name or
    null — and desc), [ablations] (name, isolates),
    [cells]
    (workload, variant, ablation, cycles, cycle_ratio, categories, deltas,
    output_matches, fused, obs), [tornado], [fusion] (fused_cells,
    sims_saved) and [total_wall_s].  Pass the result
    through {!Epic_core.Export.normalize_time} before diffing. *)
val to_json : report -> Epic_obs.Json.t

(** Human-readable sensitivity report: per-workload variant tables with
    cycle ratios and the dominant delta categories, then the tornado. *)
val print_report : Format.formatter -> report -> unit
