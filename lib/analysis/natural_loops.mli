(** Natural-loop detection (back edges under dominance) plus the
    profile-derived trip-count statistics that drive loop peeling and
    unrolling (paper Sections 2.4 and 3.2). *)

type loop = {
  header : string;
  body : string list;  (** includes the header *)
  back_edges : string list;  (** latch labels *)
  mutable avg_trips : float;
      (** header executions per loop entry, from profile weights; a body
          that "typically executes exactly once" has avg_trips ≈ 2 *)
}

type t = { loops : loop list }

(** [dom] lets callers (notably the analysis cache) share an
    already-computed dominator solution instead of recomputing one. *)
val compute : ?dom:Dominance.t -> Epic_ir.Func.t -> t

(** Structural equality (same loops, bodies, latches and trip counts); used
    by the analysis cache's cached-equals-fresh self check. *)
val equal : t -> t -> bool
val innermost_first : t -> loop list
val in_loop : loop -> string -> bool

(** Labels outside the loop that the loop can exit to. *)
val exits : Epic_ir.Func.t -> loop -> string list
