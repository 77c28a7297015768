(* The classical optimization pipeline ("Classical optimization" in
   Figure 4), expressed as registered pass-manager passes: the six local
   cleanups plus loop-invariant code motion, iterated to a (bounded)
   per-function fixed point over the manager's dirty-function worklist. *)

open Epic_ir
module Cache = Epic_analysis.Cache

(* One round of every classical pass over the whole program, cache-free —
   the reference oracle the pass-manager fixed point is tested against. *)
let classical_pass (p : Program.t) =
  let c1 = Constfold.run p in
  let c2 = Copyprop.run p in
  let c3 = Strength.run p in
  let c4 = Local_cse.run p in
  let c5 = Dce.run p in
  let c6 = Jumpopt.run p in
  c1 || c2 || c3 || c4 || c5 || c6

(* Preservation contracts.  The straight-line rewrites (folding, copy
   propagation, strength reduction) never touch the CFG, stores or calls, so
   the dominator tree, loop nest, memory-dependence summary and callgraph
   all survive; only liveness must be recomputed.  Jump optimization
   rewrites the CFG (and its unreachable-code removal can delete call
   sites), so it invalidates everything but the flow-insensitive points-to
   solution. *)
let straightline_preserves =
  Cache.[ Dominance; Loops; Memdep; Callgraph; Points_to ]

let cse_preserves = Cache.[ Dominance; Loops; Callgraph; Points_to ]

(* The cleanup passes of the fixed point, in their canonical order. *)
let cleanup_passes =
  [ "constfold"; "copyprop"; "strength"; "local-cse"; "dce"; "jumpopt" ]

let register_classical (m : Passman.t) =
  Passman.register m
    (Passman.func_pass "constfold" ~preserves:straightline_preserves
       (fun _ f -> Constfold.run_func f));
  Passman.register m
    (Passman.func_pass "copyprop" ~preserves:straightline_preserves
       (fun _ f -> Copyprop.run_func f));
  Passman.register m
    (Passman.func_pass "strength" ~preserves:straightline_preserves
       (fun _ f -> Strength.run_func f));
  Passman.register m
    (Passman.func_pass "local-cse" ~preserves:cse_preserves (fun _ f ->
         Local_cse.run_func f));
  Passman.register m
    (Passman.func_pass "dce" ~preserves:Dce.dce_preserves
       (fun c f -> Dce.run_func ~cache:c f));
  Passman.register m
    (Passman.func_pass "jumpopt" ~preserves:[ Cache.Points_to ] (fun _ f ->
         Jumpopt.run_func f));
  Passman.register m
    (Passman.func_pass "licm"
       ~preserves:Cache.[ Callgraph; Points_to ]
       (fun c f -> Licm.run_func ~cache:c f))

(* The classical fixed point on a pass manager: only the functions on the
   dirty worklist are iterated (LICM still sweeps every function).  Returns
   the round count, as the legacy entry point did. *)
let run_classical_pm (m : Passman.t) ~name =
  let rounds = Passman.fixed_point m ~name ~cleanup:cleanup_passes ~licm:"licm" in
  Verify.check_program (Passman.program m);
  rounds

let manager ?(obs = Epic_obs.Passes.create ()) (p : Program.t) =
  let m = Passman.create ~obs p in
  register_classical m;
  m
