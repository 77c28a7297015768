(** The classical optimization pipeline (Figure 4's "classical
    optimization"): iterated local cleanups, control-flow simplification
    and loop-invariant code motion, run to a bounded fixed point; verifies
    the program on exit.  Expressed as {!Passman} passes so the fixed point
    only revisits functions some pass has dirtied. *)

(** One round of every classical pass over the whole program, cache-free —
    the reference oracle the pass-manager fixed point is tested against;
    true if anything changed. *)
val classical_pass : Epic_ir.Program.t -> bool

(** A manager for one compilation of a program ({!Passman.create}) with
    the six cleanup passes plus ["licm"] registered, each with its
    preservation contract.  [obs] receives the per-phase records (a fresh
    registry when omitted). *)
val manager : ?obs:Epic_obs.Passes.t -> Epic_ir.Program.t -> Passman.t

(** The classical fixed point over the manager's dirty-function worklist,
    instrumented as phase [name]; returns the round count.  On a fresh
    {!manager} every function starts dirty, which is the whole-program
    iteration. *)
val run_classical_pm : Passman.t -> name:string -> int
