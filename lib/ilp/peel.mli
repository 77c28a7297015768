(** Loop peeling (Figure 3(b)): loops whose profile shows an expected trip
    count near one — the crafty Evaluate() pattern — have one iteration
    pulled out in front; the original loop remains as a (cold or lukewarm)
    remainder.  The peeled, branch-in-free copy can then be absorbed into a
    surrounding trace, which is where the ILP benefit materializes. *)

type params = {
  max_avg_trips : float;
  min_avg_trips : float;
  max_body_instrs : int;
  growth_budget : float;
  mark_remainder_cold : bool;
}

val default_params : params

(** Returns (loops peeled, instructions copied into the peeled
    iterations). *)
val run_func :
  ?cache:Epic_analysis.Cache.t -> ?params:params -> Epic_ir.Func.t -> int * int

(** Returns the number of loops peeled. *)
val run :
  ?cache:Epic_analysis.Cache.t -> ?params:params -> Epic_ir.Program.t -> int
