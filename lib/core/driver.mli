(** The compilation driver: the phase sequence of the paper's Figure 4,
    from mini-C source (or IR) to a scheduled, register-allocated, laid-out
    binary image, plus runners for the simulator and for the reference
    interpreter. *)

type compiled = {
  program : Epic_ir.Program.t;  (** the final (scheduled, allocated) IR *)
  layout : Epic_sched.Layout.t;  (** bundles and code addresses *)
  config : Config.t;
  desc : Epic_mach.Machine_desc.t;
      (** the machine description the schedule was planned against; [run]
          simulates under the same description *)
  transform_stats : transform_stats;
  pass_records : Epic_obs.Passes.record list;
      (** per-phase wall time, fixed-point rounds and IR-size deltas, in
          execution order *)
}

(** Static statistics of one compilation, feeding the code-growth numbers of
    Sections 3.2 and 4.1. *)
and transform_stats = {
  instrs_after_frontend : int;
  instrs_after_classical : int;
  instrs_final : int;
  inlined_sites : int;
  specialized_calls : int;
  peeled_loops : int;
  unrolled_loops : int;
  hyperblocks : int;
  superblocks : int;
  tail_dup_instrs : int;
  peel_instrs : int;
  promoted_loads : int;
  marked_spec_loads : int;
  advanced_loads : int;
  static_bundles : int;
  code_bytes : int;
  fallback : string option;
      (** the degraded region-formation level a register-pressure fallback
          recompile landed on ([Some "no-unroll-no-hyperblock"] or
          [Some "o-ns"]); [None] when the first attempt succeeded *)
}

(** [profiler p train] is the profiling step of one compile: each call
    runs [p] on [train] under the reference interpreter, annotates the IR
    with the counts and returns the profile.  The first call's exit code
    and output are the reference; a later call (a reprofile after the phase
    named [after]) that does not reproduce them raises [Failure] naming
    that phase, so a transform that miscompiles the train input fails at
    the pass that broke it.  {!compile_ir} profiles and reprofiles through
    one. *)
val profiler :
  Epic_ir.Program.t -> int64 array -> after:string -> Epic_analysis.Profile.t

(** Compile an already-lowered program under [config], profiling on the
    [train] input.  Every reprofile must reproduce the first profile run's
    exit code and output (see {!profiler}).  The program is transformed in
    place.  [passes]
    accumulates the per-phase instrumentation records (a fresh registry is
    used when omitted; either way the records land in [pass_records]).

    [desc] is the machine description to compile for (planned latencies,
    issue geometry, code-layout line size): the scheduler and the layout
    take it as an argument, and it is recorded in the result so {!run}
    simulates the same machine.  Default:
    {!Epic_mach.Machine_desc.itanium2}.  The pass counts in
    [transform_stats] are the values the transforms return, summed over
    the compile's functions. *)
val compile_ir :
  ?config:Config.t ->
  ?desc:Epic_mach.Machine_desc.t ->
  ?passes:Epic_obs.Passes.t ->
  train:int64 array ->
  Epic_ir.Program.t ->
  compiled

(** Compile mini-C source text.  ILP configurations degrade gracefully
    (less aggressive region formation) if the structural transforms would
    exhaust the predicate register file; the source is lowered once and
    fallback attempts restart from a deep copy of the pre-optimization IR,
    recording the level reached in [transform_stats.fallback]. *)
val compile :
  ?config:Config.t ->
  ?desc:Epic_mach.Machine_desc.t ->
  train:int64 array ->
  string ->
  compiled

(** Run a compiled binary on the Itanium-2-class simulator; returns
    (exit code, program output, final machine state with all counters).
    [trace] and [profile] enable the opt-in observability instruments;
    [experiments] names causal-profiling virtual speedups to read off the
    finished run with {!Epic_sim.Machine.fused_accounts} (see
    {!Epic_sim.Machine.run}). *)
val run :
  ?fuel:int ->
  ?trace:Epic_obs.Trace.t ->
  ?profile:Epic_obs.Profile.t ->
  ?experiments:Epic_sim.Accounting.experiment list ->
  ?sampling:Epic_sim.Sampling.plan ->
  ?checkpoint_at:int ->
  compiled ->
  int64 array ->
  int * string * Epic_sim.Machine.t

(** Resume a checkpoint (captured by a [?checkpoint_at] run of the same
    compiled binary) to completion under this binary's machine description;
    see {!Epic_sim.Machine.resume}. *)
val resume :
  ?fuel:int ->
  ?trace:Epic_obs.Trace.t ->
  ?profile:Epic_obs.Profile.t ->
  compiled ->
  Epic_sim.Machine.checkpoint ->
  int * string * Epic_sim.Machine.t

(** Run the compiled program's IR on the reference interpreter (scheduling
    does not change IR meaning, so this cross-checks the simulator). *)
val run_reference : ?fuel:int -> compiled -> int64 array -> int * string
