(** Control speculation (Sections 2.2, 4.2, 4.3), applied in ILP-CS only:
    predicate promotion of guarded loads in predicated regions, and marking
    of loads below superblock side exits so the scheduler may hoist them.
    Under the [General] model the marked loads complete eagerly (wild
    loads); under [Sentinel] they defer as NaT and a chk.s recovers. *)

type model = General | Sentinel

type params = {
  model : model;
  promote : bool;
  hoist_marks : bool;
  max_promotions_per_block : int;
}

val default_params : params

(** Returns (loads promoted, loads marked below side exits); the function
    was mutated when either is non-zero. *)
val run_func : ?params:params -> Epic_ir.Func.t -> int * int

(** Returns the number of loads speculated (promoted plus marked). *)
val run : ?params:params -> Epic_ir.Program.t -> int
