(* Pass-manager tests: analysis-cache hits vs fresh recomputes (the debug
   self-check), explicit invalidation with preservation lists, staleness
   detection, and the equivalence of the dirty-function fixed point with
   the legacy whole-program fixed point on every suite workload. *)

open Epic_ir
module Cache = Epic_analysis.Cache

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string

let lower = Epic_frontend.Lower.compile_source

let loopy_src =
  {|
int g[16];
int f(int x) {
  int s; int i;
  s = 0;
  for (i = 0; i < 16; i = i + 1) { s = s + g[i] * x; }
  return s;
}
int main() {
  int i;
  for (i = 0; i < 16; i = i + 1) { g[i] = i; }
  print_int(f(3));
  return 0;
}
|}

(* --- cache hits, invalidation, preservation lists ----------------------- *)

let test_cache_hit_returns_cached () =
  let p = lower loopy_src in
  let cache = Cache.create () in
  let f = List.hd p.Program.funcs in
  let live0 = Cache.liveness cache f in
  let live1 = Cache.liveness cache f in
  check cb "second fetch is the cached value" true (live0 == live1);
  let hits, misses = List.assoc Cache.Liveness (Cache.stats cache) in
  check ci "one miss" 1 misses;
  check ci "one hit" 1 hits

let test_invalidation_respects_preserve () =
  let p = lower loopy_src in
  let cache = Cache.create () in
  let f = List.hd p.Program.funcs in
  let dom0 = Cache.dominance cache f in
  let live0 = Cache.liveness cache f in
  Cache.invalidate cache ~preserve:[ Cache.Dominance ] f.Func.name;
  let dom1 = Cache.dominance cache f in
  let live1 = Cache.liveness cache f in
  check cb "preserved entry survives invalidation" true (dom0 == dom1);
  check cb "non-preserved entry is recomputed" true (not (live0 == live1))

let test_invalidation_is_per_function () =
  let p = lower loopy_src in
  let cache = Cache.create () in
  let f = Program.find_func_exn p "f" in
  let m = Program.find_func_exn p "main" in
  let live_f = Cache.liveness cache f in
  let live_m = Cache.liveness cache m in
  Cache.invalidate cache f.Func.name;
  check cb "other function's entry survives" true
    (Cache.liveness cache m == live_m);
  check cb "invalidated function recomputes" true
    (not (Cache.liveness cache f == live_f))

(* Mutating the IR without invalidating must trip the debug self-check on
   the next (stale) hit. *)
let test_selfcheck_catches_stale_entry () =
  let p = lower loopy_src in
  let cache = Cache.create () in
  let f = Program.find_func_exn p "f" in
  ignore (Cache.liveness cache f);
  (* make some register live through the entry block without telling the
     cache: copy an existing dst into a fresh register at function end *)
  let b = List.hd (List.rev f.Func.blocks) in
  let src =
    List.concat_map (fun (i : Instr.t) -> i.Instr.dsts) b.Block.instrs
    @ [ Reg.sp ]
    |> List.hd
  in
  let d = Func.fresh_reg f Reg.Int in
  Block.append b
    (Instr.create Opcode.Mov ~dsts:[ d ] ~srcs:[ Operand.Reg src ]);
  Cache.self_check := true;
  let tripped =
    try
      ignore (Cache.liveness cache f);
      false
    with Failure _ -> true
  in
  Cache.self_check := false;
  check cb "stale hit detected" true tripped

(* --- pass runs keep the cache coherent (cached = fresh) ------------------ *)

(* Every structural pass of full compiles at every configuration, with every
   cache hit re-validated against a fresh recompute: a stale entry fails
   inside the compile and surfaces as [Crash].  Goes through
   [Random_program.check] for its fuel guards (some generated programs are
   too expensive to profile). *)
let qcheck_selfcheck_across_driver =
  QCheck.Test.make ~count:8
    ~name:"cached = fresh across full compiles (random programs)"
    (QCheck.make ~print:(fun s -> s) Epic_core.Random_program.Gen.program)
    (fun src ->
      Cache.self_check := true;
      Fun.protect
        ~finally:(fun () -> Cache.self_check := false)
        (fun () ->
          match Epic_core.Random_program.check src [| 5L |] with
          | Epic_core.Random_program.Agree | Epic_core.Random_program.Skipped
            ->
              true
          | Epic_core.Random_program.Mismatch _
          | Epic_core.Random_program.Crash _ ->
              false))

(* The same contract on every suite workload at every level, each compiled
   with its own pointer-analysis setting as the suite does. *)
let test_selfcheck_suite () =
  Cache.self_check := true;
  Fun.protect
    ~finally:(fun () -> Cache.self_check := false)
    (fun () ->
      List.iter
        (fun (w : Epic_workloads.Workload.t) ->
          List.iter
            (fun level ->
              let config =
                {
                  (Epic_core.Config.make level) with
                  Epic_core.Config.pointer_analysis =
                    w.Epic_workloads.Workload.pointer_analysis;
                }
              in
              ignore
                (Epic_core.Driver.compile ~config ~train:w.Epic_workloads.Workload.train
                   w.Epic_workloads.Workload.source))
            Epic_core.Experiments.levels)
        Epic_workloads.Suite.all)

(* --- dirty-function fixed point ≡ whole-program fixed point -------------- *)

(* The legacy whole-program fixed point, cache-free: bounded rounds of every
   cleanup pass over every function, then LICM, then a bounded cleanup of
   the whole program again.  This is the oracle the worklist version must
   reproduce exactly. *)
let oracle_classical ?(max_rounds = 8) (p : Program.t) =
  let rec go n = if n > 0 && Epic_opt.Pipeline.classical_pass p then go (n - 1) in
  go max_rounds;
  let moved = Epic_opt.Licm.run p in
  if moved then go 3;
  Verify.check_program p

let test_fixed_point_matches_oracle () =
  List.iter
    (fun (w : Epic_workloads.Workload.t) ->
      let p_oracle = lower w.Epic_workloads.Workload.source in
      oracle_classical p_oracle;
      let p_pm = lower w.Epic_workloads.Workload.source in
      ignore (Epic_opt.Pipeline.run_classical_pm (Epic_opt.Pipeline.manager p_pm) ~name:"classical");
      check cs
        (w.Epic_workloads.Workload.short ^ ": worklist IR = oracle IR")
        (Fmt.str "%a" Program.pp p_oracle) (Fmt.str "%a" Program.pp p_pm))
    Epic_workloads.Suite.all

(* --- the worklist actually skips clean functions ------------------------- *)

let test_clean_worklist_runs_no_rounds () =
  (* loop-free program: after one fixed point everything is stable and
     clean, so a second fixed point must do zero rounds and change nothing *)
  let p = lower "int main() { int x; x = 2 + 3; print_int(x * 4); return 0; }" in
  let m = Epic_opt.Pipeline.manager p in
  ignore (Epic_opt.Pipeline.run_classical_pm m ~name:"classical (first)");
  check ci "worklist drained" 0
    (List.length (Epic_opt.Passman.dirty_funcs m));
  let before = Fmt.str "%a" Program.pp p in
  let rounds = Epic_opt.Pipeline.run_classical_pm m ~name:"classical (again)" in
  check ci "clean worklist does no cleanup rounds" 0 rounds;
  check cs "IR untouched" before (Fmt.str "%a" Program.pp p)

let test_mark_dirty_revisits () =
  let p = lower loopy_src in
  let m = Epic_opt.Pipeline.manager p in
  ignore (Epic_opt.Pipeline.run_classical_pm m ~name:"classical");
  (* un-optimize one function by hand: dead pure code the cleanup removes *)
  let f = Program.find_func_exn p "f" in
  let d = Func.fresh_reg f Reg.Int in
  let entry = Func.entry f in
  entry.Block.instrs <-
    Instr.create Opcode.Add ~dsts:[ d ]
      ~srcs:[ Operand.Imm 1L; Operand.Imm 2L ]
    :: entry.Block.instrs;
  let n_before = Func.instr_count f in
  Epic_opt.Passman.note_changes m ~preserves:[] (Epic_opt.Passman.Changed [ "f" ]);
  check cb "function is dirty again" true (Epic_opt.Passman.is_dirty m "f");
  ignore (Epic_opt.Pipeline.run_classical_pm m ~name:"classical (redo)");
  check cb "revisited function re-optimized" true (Func.instr_count f < n_before)

(* --- reprofiles check their run ------------------------------------------ *)

(* A pass that miscompiles the train input is caught by the next reprofile,
   which names it: here a pass registered next to the classical ones
   rewrites [main]'s print to print a constant. *)
let test_reprofile_names_diverging_phase () =
  let p = lower loopy_src in
  let m = Epic_opt.Pipeline.manager p in
  Epic_opt.Passman.register m
    (Epic_opt.Passman.func_pass "corrupt print" (fun _ (f : Func.t) ->
         f.Func.name = "main"
         && List.exists
              (fun (b : Block.t) ->
                List.exists
                  (fun (i : Instr.t) ->
                    match i.Instr.srcs with
                    | Operand.Sym "print_int" :: _ :: _ ->
                        i.Instr.srcs <- [ Operand.Sym "print_int"; Operand.imm 7 ];
                        true
                    | _ -> false)
                  b.Block.instrs)
              f.Func.blocks));
  let profile = Epic_core.Driver.profiler p [||] in
  ignore (profile ~after:"lowering");
  ignore (Epic_opt.Pipeline.run_classical_pm m ~name:"classical");
  ignore (profile ~after:"classical");
  check cb "the pass changed main" true
    (Epic_opt.Passman.run_pass m "corrupt print" <> Epic_opt.Passman.Unchanged);
  match profile ~after:"corrupt print" with
  | _ -> Alcotest.fail "a diverging train run was accepted"
  | exception Failure msg ->
      let prefix = "reprofile after corrupt print:" in
      check cs "the failure names the phase" prefix
        (String.sub msg 0 (min (String.length msg) (String.length prefix)))

let suite =
  [
    Alcotest.test_case "cache hit returns cached value" `Quick
      test_cache_hit_returns_cached;
    Alcotest.test_case "invalidation respects preserve list" `Quick
      test_invalidation_respects_preserve;
    Alcotest.test_case "invalidation is per-function" `Quick
      test_invalidation_is_per_function;
    Alcotest.test_case "self-check catches stale entries" `Quick
      test_selfcheck_catches_stale_entry;
    QCheck_alcotest.to_alcotest qcheck_selfcheck_across_driver;
    Alcotest.test_case "cache self-check: suite x 4 levels"
      `Slow test_selfcheck_suite;
    Alcotest.test_case "worklist fixed point = whole-program oracle (suite)"
      `Slow test_fixed_point_matches_oracle;
    Alcotest.test_case "clean worklist runs no rounds" `Quick
      test_clean_worklist_runs_no_rounds;
    Alcotest.test_case "mark_dirty revisits a function" `Quick
      test_mark_dirty_revisits;
    Alcotest.test_case "a diverging reprofile names the phase" `Quick
      test_reprofile_names_diverging_phase;
  ]
