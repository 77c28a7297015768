(** Control-flow profiling (Figure 4's first phase): run the program under
    the reference interpreter on a training input and annotate the IR in
    place — block weights, branch taken probabilities, and per-site
    indirect-call target histograms (for specialization).

    The interpreter counts into dense per-function arrays
    ([Interp.run ~profile:true]); [collect] folds those counts into the
    keyed tables below, summing where keys repeat (blocks of equally named
    functions, instructions sharing an id after [Instr.clone]). *)

type t = {
  block_counts : (string * string, float) Hashtbl.t;
  branch_exec : (int, float) Hashtbl.t;
  branch_taken : (int, float) Hashtbl.t;
  indirect_targets : (int, (string, float) Hashtbl.t) Hashtbl.t;
}

(** Run on [input]; returns (profile, exit code, output). *)
val collect : Epic_ir.Program.t -> int64 array -> t * int * string

(** Write the collected counts into the IR's weight/probability attrs. *)
val annotate : Epic_ir.Program.t -> t -> unit

val profile_and_annotate : Epic_ir.Program.t -> int64 array -> t

(** [Some (callee, fraction)] when one target receives at least
    [threshold] of an indirect site's calls. *)
val dominant_target : t -> int -> threshold:float -> (string * float) option

(** Re-run and re-annotate after a CFG-changing transformation. *)
val reprofile : Epic_ir.Program.t -> int64 array -> unit
