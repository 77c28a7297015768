(** The pass manager behind the Figure-4 phase sequence.

    Every transform is a registered pass declaring the analyses it
    {e preserves} (see {!Epic_analysis.Cache.kind}); it fetches the ones it
    needs from the cache itself.
    Passes report [Changed]/[Unchanged] per function; the manager drops only
    the non-preserved cache entries of the functions that actually changed
    and puts them on a dirty worklist.  The classical-optimization fixed
    point ({!fixed_point}) then runs over the dirty functions only — a
    function untouched since it last stabilized is skipped entirely.

    Each pass execution is instrumented into {!Epic_obs.Passes}: wall time,
    fixed-point rounds, IR-size deltas, and the analysis-cache hit/miss
    counters it incurred. *)

type changes =
  | Unchanged
  | Changed of string list  (** names of the functions the pass mutated *)
  | Changed_all
      (** conservative: interprocedural passes (inlining, indirect-call
          specialization) that rewrite an unknown set of functions *)

type func_pass = {
  fp_name : string;
  fp_preserves : Epic_analysis.Cache.kind list;
  fp_run : Epic_analysis.Cache.t -> Epic_ir.Func.t -> bool;
      (** intra-procedural transform; true iff it mutated the function *)
}

val func_pass :
  ?preserves:Epic_analysis.Cache.kind list ->
  string ->
  (Epic_analysis.Cache.t -> Epic_ir.Func.t -> bool) ->
  func_pass

type t

(** A manager for one compilation of [program]: fresh analysis cache, all
    functions initially dirty.  [obs] receives the per-phase records. *)
val create : obs:Epic_obs.Passes.t -> Epic_ir.Program.t -> t

val cache : t -> Epic_analysis.Cache.t
val program : t -> Epic_ir.Program.t

(** Register a pass by name; raises on duplicates. *)
val register : t -> func_pass -> unit

(** {1 Dirty-function worklist} *)

val mark_all_dirty : t -> unit
val is_dirty : t -> string -> bool

(** Dirty functions in program order. *)
val dirty_funcs : t -> Epic_ir.Func.t list

(** Apply a change report: invalidate the changed functions' non-[preserves]
    cache entries and mark them dirty. *)
val note_changes : t -> preserves:Epic_analysis.Cache.kind list -> changes -> unit

(** {1 Instrumented execution} *)

(** [phase t ~name f] runs [f] as a named instrumented phase (wall time,
    IR deltas, cache counters; [rounds_of] extracts a round count from the
    result) and applies the changes it reports under [preserves]. *)
val phase :
  t ->
  name:string ->
  ?rounds_of:('a -> int) ->
  ?preserves:Epic_analysis.Cache.kind list ->
  (t -> 'a * changes) ->
  'a

(** Run one registered pass over the whole program as an instrumented
    phase: it visits every function; returns the functions it changed. *)
val run_pass : t -> string -> changes

(** The classical-optimization fixed point as a dirty-function worklist:
    the registered [cleanup] function passes iterate to a per-function
    fixed point over the dirty functions only (clean functions are
    skipped), at most 8 rounds each; the [licm] pass then visits every
    function, with up to 3 extra cleanup rounds where it moved code.
    Functions whose budget ran out while still changing stay dirty.
    Returns the round count (also recorded as the phase's [rounds]). *)
val fixed_point : t -> name:string -> cleanup:string list -> licm:string -> int
