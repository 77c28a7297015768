(** Final code layout: issue groups packed into IA-64 bundles (16 bytes
    each, shared across adjacent groups via stop bits), every bundle given
    an address, functions laid out sequentially with cold blocks sunk.
    The simulator's front end fetches through these addresses — this is
    what makes instruction-cache footprint measurable. *)

type group = {
  instrs : Epic_ir.Instr.t list;
  bundles : Epic_mach.Bundle.t list;
  addr : int64;  (** address of the group's first bundle *)
  n_bundles : int;
  n_nops : int;  (** template nops this group retires *)
}

type block_layout = { label : string; groups : group array }

type t = {
  by_block : (string * string, block_layout) Hashtbl.t;
  mutable code_bytes : int;
  mutable total_bundles : int;
  mutable total_nops : int;
}

(** Sink cold-marked blocks to the function end, keeping control explicit
    (run before scheduling). *)
val sink_cold_blocks : Epic_ir.Func.t -> unit

(** Lay out a scheduled program; functions are padded to the L1I line of
    [desc]. *)
val build : desc:Epic_mach.Machine_desc.t -> Epic_ir.Program.t -> t
val block_layout : t -> string -> string -> block_layout option
val static_bundles : t -> int
