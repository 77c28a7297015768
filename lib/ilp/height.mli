(** Data-height reduction (Section 3.2): serial chains of associative
    integer operations — the accumulator updates region formation and
    unrolling line up — are rebalanced into trees, halving dependence
    height.  Only provably-safe chains are rewritten (single-use unguarded
    links, dead outside the block). *)

(** The [run] functions return true when a chain was rebalanced (the
    code was mutated). *)
val run_block :
  Epic_ir.Func.t -> Epic_analysis.Liveness.t -> Epic_ir.Block.t -> bool

val run_func : ?cache:Epic_analysis.Cache.t -> Epic_ir.Func.t -> bool
val run : ?cache:Epic_analysis.Cache.t -> Epic_ir.Program.t -> bool
