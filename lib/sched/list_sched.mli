(** Cycle-driven list scheduling against the resource model and planned
    latencies of the machine description [desc] (normally Itanium 2):
    every instruction gets an issue cycle and blocks are reordered to
    (cycle, dependence-consistent order).  The [reorder:false] mode
    schedules in strict program order — the GCC 3.2 stand-in, which
    performed no global scheduling on IA-64. *)

val schedule_block :
  desc:Epic_mach.Machine_desc.t ->
  Epic_analysis.Liveness.t ->
  Epic_ir.Block.t ->
  unit

val run_func :
  ?cache:Epic_analysis.Cache.t ->
  ?reorder:bool ->
  desc:Epic_mach.Machine_desc.t ->
  Epic_ir.Func.t ->
  unit

val run :
  ?cache:Epic_analysis.Cache.t ->
  ?reorder:bool ->
  desc:Epic_mach.Machine_desc.t ->
  Epic_ir.Program.t ->
  unit
