(** Whole programs: functions plus global data.  Globals live at fixed
    addresses assigned by {!assign_addresses}; the interpreter and the
    simulator share this layout. *)

type global = {
  gname : string;
  size : int;  (** bytes *)
  init : int64 array option;  (** initial 8-byte words; zero if absent *)
  mutable address : int64;
}

type t = {
  mutable funcs : Func.t list;  (** definition order *)
  mutable globals : global list;
  mutable entry : string;  (** entry function, normally "main" *)
}

val create : unit -> t

(** A snapshot deep copy: fresh functions, blocks, instructions and global
    descriptors (read-only initializer arrays stay shared).  Instruction
    ids are preserved, so taking a snapshot does not advance the global id
    counter. *)
val copy : t -> t
val add_func : t -> Func.t -> unit
val add_global : t -> ?init:int64 array -> string -> size:int -> global
val find_func : t -> string -> Func.t option
val find_func_exn : t -> string -> Func.t
val find_global : t -> string -> global option

(** {2 Address-space layout} (the zero page is the architected NaT page) *)

val heap_base : int64
val stack_top : int64
val code_base : int64

(** Stable "address" of a function, so function pointers can live in
    memory (indirect calls). *)
val func_address : t -> string -> int64

val func_at_address : t -> int64 -> string option

(** Assign addresses to all globals (16-byte aligned, from [data_base]). *)
val assign_addresses : t -> unit

val iter_instrs : t -> (Instr.t -> unit) -> unit
val instr_count : t -> int
val pp : Format.formatter -> t -> unit
