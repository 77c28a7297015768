(** Per-function analysis cache with explicit, invalidation-tracked entries
    — the storage layer under the pass manager ({!Epic_opt.Passman}).

    Every analysis a transform consumes (dominance, liveness, natural loops,
    the per-block memory-dependence summary; program-level call graph and
    points-to) is fetched through here instead of calling [*.compute]
    directly.  Entries are keyed by function name (functions are mutated in
    place and their names are unique and stable); a pass that mutates a
    function reports it to the pass manager, which drops exactly the
    non-preserved entries via {!invalidate}.

    With {!self_check} on (the test suite turns it on), every cache hit is
    re-validated against a fresh recompute — cached-equals-fresh — so a
    missing invalidation fails loudly instead of silently serving stale
    dataflow. *)

type kind = Dominance | Liveness | Loops | Memdep | Callgraph | Points_to

(** Per-block summary of the memory-ordering-relevant instructions (stores,
    and calls that may touch memory), as consumed by LICM's alias scan. *)
type memdep_summary = (string, Epic_ir.Instr.t list) Hashtbl.t

type t

val create : unit -> t

(** When true, every hit recomputes the analysis fresh and asserts equality
    with the cached value (raises [Failure] otherwise).  Off by default;
    the test suite enables it. *)
val self_check : bool ref

(** {1 Cached fetches} — compute on miss, reuse on hit. *)

val dominance : t -> Epic_ir.Func.t -> Dominance.t
val liveness : t -> Epic_ir.Func.t -> Liveness.t

(** Shares the cached dominator solution with {!dominance}. *)
val loops : t -> Epic_ir.Func.t -> Natural_loops.t

val memdep : t -> Epic_ir.Func.t -> memdep_summary
val callgraph : t -> Epic_ir.Program.t -> Callgraph.t

(** Cached points-to run.  On a miss this (re-)annotates every memory
    instruction's [mem_tag]; on a hit the existing annotations stand. *)
val points_to : t -> enabled:bool -> Epic_ir.Program.t -> Points_to.t

(** {1 Invalidation} *)

(** Drop the entries of one function, except the [preserve]d kinds.
    Program-level kinds ([Callgraph], [Points_to]) are dropped too unless
    preserved — a change to any function invalidates them. *)
val invalidate : t -> ?preserve:kind list -> string -> unit

(** Drop the given kinds for every function (and the program-level entries
    if listed).  Used e.g. after re-profiling, which changes the weights
    that loop trip counts and call-graph edge counts are derived from
    without touching any IR structure. *)
val invalidate_kinds : t -> kind list -> unit

(** Drop everything except the [preserve]d kinds. *)
val invalidate_all : t -> ?preserve:kind list -> unit -> unit

(** {1 Counters} *)

(** Cumulative (hits, misses) per analysis kind, in [all_kinds] order. *)
val stats : t -> (kind * (int * int)) list

(** [(kind name, hits, misses)] rows, skipping kinds never queried. *)
val stats_rows : t -> (string * int * int) list

(** [diff_rows before after] — per-kind counter deltas, skipping zero rows;
    [before]/[after] as returned by {!stats}. *)
val diff_rows :
  (kind * (int * int)) list ->
  (kind * (int * int)) list ->
  (string * int * int) list
