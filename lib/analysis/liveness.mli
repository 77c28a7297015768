(** Block-level live-variable analysis.  Predicated definitions do not kill
    (the old value survives a false guard) — except unconditional-type
    compares, which always write their predicate targets. *)

type t

val compute : Epic_ir.Func.t -> t

(** Structural equality (same per-block live-in/live-out); used by the
    analysis cache's cached-equals-fresh self check. *)
val equal : t -> t -> bool
val live_in : t -> string -> Epic_ir.Reg.Set.t
val live_out : t -> string -> Epic_ir.Reg.Set.t

(** [transfer t i after]: the registers live just before [i], given those
    live just after it; at a side exit the target's live-in joins. *)
val transfer : t -> Epic_ir.Instr.t -> Epic_ir.Reg.Set.t -> Epic_ir.Reg.Set.t

(** Live registers immediately before each instruction of the block (a list
    parallel to its instructions), merging branch-target live-ins at each
    side exit. *)
val per_instr : t -> Epic_ir.Func.t -> Epic_ir.Block.t -> Epic_ir.Reg.Set.t list
