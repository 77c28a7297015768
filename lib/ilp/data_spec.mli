(** Data speculation (the paper's Section 2 "future work", implemented as
    an extension): loads blocked only by unresolvable may-alias store
    dependences become advanced loads (ld.a) with an ALAT check (chk.a) at
    their original position; the scheduler may then hoist them above the
    stores, and a genuinely conflicting store forces reload recovery. *)

type params = {
  min_block_weight : float;
  max_advances_per_block : int;
  window : int;
}

val default_params : params

(** Returns the number of loads advanced; the function was mutated when it
    is non-zero. *)
val run_func : ?params:params -> Epic_ir.Func.t -> int

val run : ?params:params -> Epic_ir.Program.t -> int
