(** Structural well-formedness checks, run between compiler phases: unique
    labels, resolvable branch and recovery targets, operand arities,
    predicate-typed guards, and no control falling off a function's end. *)

exception Ill_formed of string

(** Check one function; [program] additionally resolves direct calls. *)
val check_func : ?program:Program.t -> Func.t -> unit

val check_program : Program.t -> unit
