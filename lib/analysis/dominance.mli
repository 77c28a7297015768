(** Dominator analysis over the block CFG (iterative Cooper–Harvey–Kennedy),
    used by natural-loop detection, LICM and transform safety checks. *)

type t

val compute : Epic_ir.Func.t -> t

(** [None] for the entry block. *)
val immediate_dominator : t -> string -> string option

(** Does [a] dominate [b]?  Reflexive; false for unreachable blocks. *)
val dominates : t -> string -> string -> bool

val rpo : t -> string array

(** Structural equality (same RPO and immediate-dominator map); used by the
    analysis cache's cached-equals-fresh self check. *)
val equal : t -> t -> bool
