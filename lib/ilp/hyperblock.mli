(** Hyperblock formation [Mahlke et al., MICRO-25]: iterative if-conversion
    of single-entry acyclic hammocks (triangles and diamonds) into
    predicated straight-line code, with unconditional-type compares carrying
    nested guards.  Inclusion heuristics follow the paper: path execution
    ratio, arm size (resources), dependence-height compatibility, and a
    predicate-file pressure cap. *)

type params = {
  max_path_instrs : int;
  min_path_ratio : float;
  max_height_diff : int;
  max_block_predicates : int;
}

val default_params : params

(** Find the complement of predicate [pt] in a block: the compare defining
    both [pt] and its complement with neither redefined since.  Shared with
    superblock branch reversal and unrolling. *)
val complement_pred :
  Epic_ir.Block.t -> Epic_ir.Reg.t -> (Epic_ir.Instr.t * Epic_ir.Reg.t) option

(** Returns (mutated, regions converted). *)
val run_func : ?params:params -> Epic_ir.Func.t -> bool * int

(** Returns the number of regions converted. *)
val run : ?params:params -> Epic_ir.Program.t -> int
