(** Data speculation (the paper's Section 2 "future work", implemented as
    an extension): loads blocked only by unresolvable may-alias store
    dependences become advanced loads (ld.a) with an ALAT check (chk.a) at
    their original position; the scheduler may then hoist them above the
    stores, and a genuinely conflicting store forces reload recovery. *)

(** Returns the number of loads advanced; the function was mutated when it
    is non-zero. *)
val run_func : Epic_ir.Func.t -> int
