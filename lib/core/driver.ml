(* The compilation driver: runs the phase sequence of the paper's Figure 4
   for a given configuration, producing a scheduled, register-allocated,
   laid-out binary image ready for the machine simulator.

   Every phase runs on a pass manager (Epic_opt.Passman): the transforms
   are registered passes declaring the analyses they require and preserve,
   analysis results flow through the manager's per-function cache, and the
   classical fixed points only revisit functions some pass has dirtied. *)

open Epic_ir
module Passman = Epic_opt.Passman
module Cache = Epic_analysis.Cache

type compiled = {
  program : Program.t;
  layout : Epic_sched.Layout.t;
  config : Config.t;
  desc : Epic_mach.Machine_desc.t;
      (* the machine description the schedule was planned against; [run]
         hands it to the simulator so both sides read the same machine *)
  transform_stats : transform_stats;
  pass_records : Epic_obs.Passes.record list;
      (* wall time, rounds and IR-size deltas per phase, in order *)
}

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
      (* the degraded region-formation level a register-pressure fallback
         recompile landed on; [None] when the first attempt succeeded *)
}

(* What the ILP transforms did in one compile: the pass closures of
   [register_backend] add each function's counts in. *)
type counts = {
  mutable peeled : int; mutable peeled_instrs : int; mutable unrolled : int;
  mutable regions : int; mutable traces : int; mutable duplicated : int;
  mutable promoted : int; mutable marked : int; mutable advanced : int;
}

(* IR-size measurement for the frontend instrumentation record (the per-pass
   records are measured inside the pass manager): instruction and block
   counts, plus estimated code bytes. *)
let ir_measure (p : Program.t) =
  let instrs = Program.instr_count p in
  let blocks =
    List.fold_left
      (fun acc (f : Func.t) -> acc + List.length f.Func.blocks)
      0 p.Program.funcs
  in
  (instrs, blocks, (instrs + 2) / 3 * 16)

(* Register the ILP region and backend transforms on the manager, with
   their preservation contracts.  The closures capture the configuration,
   the machine description the backend plans against and the compile's
   [counts].  Region formation restructures the CFG wholesale, so only the
   flow-insensitive points-to solution survives it; the backend passes keep
   the CFG and invalidate the data-sensitive analyses from inside (they
   thread the manager's cache). *)
let register_backend m (config : Config.t) ~desc (k : counts) =
  let region = [ Cache.Points_to ] in
  Passman.register m
    (Passman.func_pass "loop peeling" ~requires:[ Cache.Loops ]
       ~preserves:region (fun c f ->
         let loops, instrs =
           Epic_ilp.Peel.run_func ~cache:c ~params:config.Config.peel f
         in
         k.peeled <- k.peeled + loops;
         k.peeled_instrs <- k.peeled_instrs + instrs;
         loops > 0));
  Passman.register m
    (Passman.func_pass "hyperblock formation" ~preserves:region (fun _ f ->
         let changed, regions =
           Epic_ilp.Hyperblock.run_func ~params:config.Config.hyperblock f
         in
         k.regions <- k.regions + regions;
         changed));
  Passman.register m
    (Passman.func_pass "superblock formation" ~preserves:region (fun _ f ->
         let changed, traces, duplicated =
           Epic_ilp.Superblock.run_func ~params:config.Config.superblock f
         in
         k.traces <- k.traces + traces;
         k.duplicated <- k.duplicated + duplicated;
         changed));
  Passman.register m
    (Passman.func_pass "loop unrolling" ~preserves:region (fun _ f ->
         let n = Epic_ilp.Unroll.run_func ~params:config.Config.unroll f in
         k.unrolled <- k.unrolled + n;
         n > 0));
  Passman.register m
    (Passman.func_pass "height reduction" ~requires:[ Cache.Liveness ]
       ~preserves:Cache.[ Callgraph; Points_to ]
       (fun c f -> Epic_ilp.Height.run_func ~cache:c f));
  Passman.register m
    (Passman.func_pass "control speculation"
       ~preserves:Cache.[ Callgraph; Points_to ]
       (fun _ f ->
         let promoted, marked =
           Epic_ilp.Speculate.run_func
             ~params:
               {
                 Epic_ilp.Speculate.default_params with
                 Epic_ilp.Speculate.model = config.Config.spec_model;
               }
             f
         in
         k.promoted <- k.promoted + promoted;
         k.marked <- k.marked + marked;
         promoted + marked > 0));
  Passman.register m
    (Passman.func_pass "data speculation"
       ~preserves:Cache.[ Callgraph; Points_to ]
       (fun _ f ->
         let n = Epic_ilp.Data_spec.run_func f in
         k.advanced <- k.advanced + n;
         n > 0));
  Passman.register m
    (Passman.func_pass "cold-code sinking"
       ~preserves:Cache.[ Callgraph; Points_to ]
       (fun _ f ->
         Epic_sched.Layout.sink_cold_blocks f;
         true));
  Passman.register m
    (Passman.func_pass "register allocation"
       ~requires:Cache.[ Loops; Liveness ]
       ~preserves:Cache.[ Dominance; Loops; Callgraph; Points_to ]
       (fun c f ->
         ignore (Epic_sched.Regalloc.run_func ~cache:c f);
         true));
  Passman.register m
    (Passman.func_pass "list scheduling" ~requires:[ Cache.Liveness ]
       ~preserves:Cache.[ Callgraph; Points_to ]
       (fun c f ->
         Epic_sched.List_sched.run_func ~cache:c
           ~reorder:(config.Config.level <> Config.Gcc_like)
           ~desc f;
         true))

(* The profiling runs of one compile: [profiler p train] returns a function
   that runs [p] on [train], checks the outcome and annotates the IR.  The
   first run's exit code and output are the reference; every later run (a
   reprofile after a structural transform) must reproduce them, so a
   transform that miscompiles the train input fails with a [Failure]
   naming the phase the run follows ([after]), at the pass that broke it. *)
let profiler (p : Program.t) (train : int64 array) =
  let first = ref None in
  fun ~after ->
    let prof, code, out = Epic_analysis.Profile.collect p train in
    (match !first with
    | None -> first := Some (code, out)
    | Some (code0, out0) ->
        if code <> code0 || not (String.equal out out0) then
          failwith
            (Printf.sprintf
               "reprofile after %s: the train run diverged from the first profile run \
                (exit %d, was %d; %d bytes of output, were %d)"
               after code code0 (String.length out) (String.length out0)));
    Epic_analysis.Profile.annotate p prof;
    prof

(* Compile IR under [config], profiling with [train] input.  [passes]
   accumulates the per-phase instrumentation: wall time, fixed-point
   rounds, IR-size deltas and analysis-cache hit/miss counters. *)
let compile_ir ?(config = Config.o_ns) ?(desc = Epic_mach.Machine_desc.itanium2)
    ?passes ~(train : int64 array) (p : Program.t) =
  let obs = match passes with Some pm -> pm | None -> Epic_obs.Passes.create () in
  Verify.check_program p;
  let m = Passman.create ~obs p in
  Epic_opt.Pipeline.register_classical m;
  let cache = Passman.cache m in
  let inlined = ref 0 and specialized = ref 0 in
  let k =
    { peeled = 0; peeled_instrs = 0; unrolled = 0; regions = 0; traces = 0;
      duplicated = 0; promoted = 0; marked = 0; advanced = 0 }
  in
  register_backend m config ~desc k;
  (* (Re)profiling rewrites execution weights in place.  No structure
     moves, so no function becomes dirty — the cleanup passes and LICM are
     weight-insensitive — but the weight-derived analyses (loop trip
     counts, the callgraph) must be refetched. *)
  let invalidate_weight_sensitive () =
    Cache.invalidate_kinds cache Cache.[ Loops; Callgraph ]
  in
  let profile = profiler p train in
  let reprofile ~after =
    ignore (profile ~after);
    invalidate_weight_sensitive ()
  in
  (* a reprofile between passes is a phase of its own; the ones nested in
     specialization and inlining count towards those passes *)
  let reprofile_phase ~after =
    Passman.phase m ~name:"reprofile (train)" (fun _ ->
        (reprofile ~after, Passman.Unchanged))
  in
  let classical name = ignore (Epic_opt.Pipeline.run_classical_pm m ~name) in
  let changed ch = ch <> Passman.Unchanged in
  let n0 = Program.instr_count p in
  (match config.Config.level with
  | Config.Gcc_like ->
      (* traditional compilation: classical optimization only, no profile
         feedback, no inlining, no interprocedural analysis *)
      classical "classical"
  | Config.O_NS | Config.ILP_NS | Config.ILP_CS ->
      (* high-level phase: profile, specialize indirect calls, inline *)
      let prof =
        Passman.phase m ~name:"profile (train)" (fun _ ->
            let prof = profile ~after:"lowering" in
            invalidate_weight_sensitive ();
            (prof, Passman.Unchanged))
      in
      Passman.phase m ~name:"indirect-call specialization" (fun _ ->
          specialized := Epic_opt.Indirect_call.run p prof;
          if !specialized > 0 then reprofile ~after:"indirect-call specialization";
          ( (),
            if !specialized > 0 then Passman.Changed_all else Passman.Unchanged
          ));
      Passman.phase m ~name:"inline" (fun _ ->
          inlined :=
            Epic_opt.Inline.run ~cache ~budget:config.Config.inline_budget p;
          reprofile ~after:"inline";
          ((), if !inlined > 0 then Passman.Changed_all else Passman.Unchanged));
      (* interprocedural pointer analysis annotates memory dependence tags *)
      Passman.phase m ~name:"points-to analysis" (fun m ->
          ignore (Cache.points_to cache ~enabled:config.Config.pointer_analysis p);
          (* the annotation refines alias precision program-wide: no cached
             analysis goes stale, but every function may optimize further *)
          Passman.mark_all_dirty m;
          ((), Passman.Unchanged));
      classical "classical (pre-region)";
      reprofile_phase ~after:"classical (pre-region)");
  let n1 = Program.instr_count p in
  (* low-level ILP phase *)
  if Config.is_ilp config then begin
    if config.Config.enable_peel then begin
      let ch = Passman.run_pass m "loop peeling" in
      if changed ch then begin
        Verify.check_program p;
        reprofile_phase ~after:"loop peeling"
      end
    end;
    if config.Config.enable_hyperblock then begin
      ignore (Passman.run_pass m "hyperblock formation");
      Verify.check_program p;
      reprofile_phase ~after:"hyperblock formation"
    end;
    if config.Config.enable_superblock then begin
      ignore (Passman.run_pass m "superblock formation");
      Verify.check_program p;
      reprofile_phase ~after:"superblock formation"
    end;
    if config.Config.enable_unroll then begin
      let ch = Passman.run_pass m "loop unrolling" in
      if changed ch then begin
        Verify.check_program p;
        reprofile_phase ~after:"loop unrolling"
      end
    end;
    (* post-region cleanup *)
    classical "classical (post-region)";
    (* data-height reduction of the accumulator chains exposed by region
       formation and unrolling *)
    if config.Config.enable_height_reduction then begin
      let ch = Passman.run_pass m "height reduction" in
      if changed ch then begin
        Verify.check_program p;
        classical "classical (post-height)"
      end
    end;
    reprofile_phase ~after:"post-region cleanup";
    if Config.has_speculation config then begin
      ignore (Passman.run_pass m "control speculation");
      Verify.check_program p
    end;
    (* extension: data speculation (ld.a / chk.a through the ALAT) *)
    if config.Config.enable_data_speculation then begin
      ignore (Passman.run_pass m "data speculation");
      Verify.check_program p
    end
  end;
  (* code generation: cold-code sinking, register allocation, scheduling,
     bundling and layout *)
  ignore (Passman.run_pass m "cold-code sinking");
  ignore (Passman.run_pass m "register allocation");
  (* the GCC-like configuration performs no instruction reordering *)
  ignore (Passman.run_pass m "list scheduling");
  Verify.check_program p;
  let layout =
    Passman.phase m ~name:"bundling and layout" (fun _ ->
        (Epic_sched.Layout.build ~desc p, Passman.Unchanged))
  in
  {
    program = p;
    layout;
    config;
    desc;
    pass_records = Epic_obs.Passes.records obs;
    transform_stats =
      {
        instrs_after_frontend = n0;
        instrs_after_classical = n1;
        instrs_final = Program.instr_count p;
        inlined_sites = !inlined;
        specialized_calls = !specialized;
        peeled_loops = k.peeled;
        unrolled_loops = k.unrolled;
        hyperblocks = k.regions;
        superblocks = k.traces;
        tail_dup_instrs = k.duplicated;
        peel_instrs = k.peeled_instrs;
        promoted_loads = k.promoted;
        marked_spec_loads = k.marked;
        advanced_loads = k.advanced;
        static_bundles = Epic_sched.Layout.static_bundles layout;
        code_bytes = layout.Epic_sched.Layout.code_bytes;
        fallback = None;
      };
  }

(* Compile mini-C source text.  If the structural transforms of an ILP
   configuration blow the (finite) predicate file — possible for adversarial
   inputs despite the hyperblock pressure guard — fall back to progressively
   less aggressive region formation rather than failing the compile.  The
   source is parsed and lowered exactly once; fallback attempts recompile
   from a deep copy of the pre-optimization IR snapshot, and record the
   level they landed on in [transform_stats.fallback]. *)
let compile ?(config = Config.o_ns) ?desc ~(train : int64 array) (src : string) =
  let t0 = Unix.gettimeofday () in
  let p0 = Epic_frontend.Lower.compile_source src in
  let parse_s = Unix.gettimeofday () -. t0 in
  let post_parse_ids = Instr.id_counter () in
  let i1, b1, y1 = ir_measure p0 in
  let snapshot = Program.copy p0 in
  let attempt ?fallback config p =
    let pm = Epic_obs.Passes.create () in
    Epic_obs.Passes.add pm ~name:"frontend: parse+lower" ~wall_s:parse_s
      ~rounds:1 ~instrs:(0, i1) ~blocks:(0, b1) ~bytes:(0, y1) ();
    let c = compile_ir ~config ?desc ~passes:pm ~train p in
    { c with transform_stats = { c.transform_stats with fallback } }
  in
  (* A fallback restarts from the snapshot exactly as a recompile from
     source would: the snapshot carries the original ids ([Program.copy]
     preserves them) and the id counter rewinds to its post-parse value. *)
  let retry ?fallback config =
    Instr.restore_ids post_parse_ids;
    attempt ?fallback config (Program.copy snapshot)
  in
  try attempt config p0
  with Epic_sched.Regalloc.Out_of_registers _ -> (
    try
      retry ~fallback:"no-unroll-no-hyperblock"
        { config with Config.enable_unroll = false; Config.enable_hyperblock = false }
    with Epic_sched.Regalloc.Out_of_registers _ ->
      retry ~fallback:"o-ns" { config with Config.level = Config.O_NS })

(* Run a compiled binary on the machine simulator. *)
let run ?fuel ?trace ?profile ?experiments ?sampling ?checkpoint_at
    (c : compiled) (input : int64 array) =
  Epic_sim.Machine.run ?fuel ?trace ?profile ?experiments ?sampling
    ?checkpoint_at ~desc:c.desc c.program c.layout input

(* Resume a checkpoint taken from a run of the same compiled binary (or a
   structurally identical recompile: the session cache's content keys
   guarantee that). *)
let resume ?fuel ?trace ?profile (c : compiled)
    (ck : Epic_sim.Machine.checkpoint) =
  Epic_sim.Machine.resume ?fuel ?trace ?profile ~desc:c.desc c.program
    c.layout ck

(* Reference semantics: the pre-backend program still runs on the
   high-level interpreter (scheduling does not change IR meaning), so a
   compiled program can always be cross-checked. *)
let run_reference ?fuel (c : compiled) (input : int64 array) =
  let code, out, _ = Interp.run ?fuel c.program input in
  (code, out)
