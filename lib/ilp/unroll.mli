(** Superblock loop unrolling with early exits: a hot single-block self-loop
    is replicated [factor] times, each replica keeping its own exit test as
    a side exit, so no static trip count is needed. *)

type params = { factor : int; min_avg_trips : float; max_body_instrs : int }

val default_params : params

(** Returns the number of loops unrolled. *)
val run_func : ?params:params -> Epic_ir.Func.t -> int

val run : ?params:params -> Epic_ir.Program.t -> int
