(** Memory-dependence queries over the points-to tags (Section 2.2 "false
    dependences"): only the true, minimum set of arcs is drawn among loads,
    stores and calls. *)

val may_alias : Epic_ir.Instr.t -> Epic_ir.Instr.t -> bool

val call_touches_memory : Epic_ir.Instr.t -> bool

(** Ordering requirement between two memory-ish instructions, [a] preceding
    [b] in program order.  Advanced (data-speculated) loads are exempt from
    store→load ordering — that is the freedom ld.a/chk.a buys. *)
val must_order : Epic_ir.Instr.t -> Epic_ir.Instr.t -> bool
