(** Superblock formation [Hwu et al., JoS'93]: profile-selected traces
    (mutual-most-likely), side entrances removed by tail duplication under
    a static-growth budget (the paper reports 21% average growth), traces
    merged into single-entry blocks with side exits. *)

type params = {
  min_edge_prob : float;
  min_block_weight : float;
  growth_budget : float;  (** max fractional code growth from duplication *)
  max_trace_len : int;
}

val default_params : params

(** Returns (mutated, superblocks formed, instructions tail-duplicated). *)
val run_func : ?params:params -> Epic_ir.Func.t -> bool * int * int

(** Returns the number of superblocks formed. *)
val run : ?params:params -> Epic_ir.Program.t -> int
