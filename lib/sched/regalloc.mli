(** Register allocation: linear scan over whole-function live intervals
    (with back-edge extension for header-live values), mapping virtual
    registers onto the IA-64 files.  Call-crossing integer values go to the
    register stack (r32-r127) — their count, [Func.n_stacked], drives the
    RSE cost model of Section 4.4 — and everything else prefers scratch
    registers; overflow spills to the memory frame through reserved
    temporaries. *)

exception Out_of_registers of string
(** Raised only for predicate-file exhaustion; [Epic_core.Driver.compile]
    catches it and retries with less aggressive region formation. *)

(** Returns the number of virtual registers spilled to the frame. *)
val run_func : ?cache:Epic_analysis.Cache.t -> Epic_ir.Func.t -> int

val run : ?cache:Epic_analysis.Cache.t -> Epic_ir.Program.t -> int
