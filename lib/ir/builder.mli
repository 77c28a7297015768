(** Imperative construction of IR functions, used by the frontend's
    lowering, by tests, and by programs that build workloads directly
    against the library (see examples/custom_workload.ml).

    The builder keeps a current block; [emit] and the convenience emitters
    append to it.  Blocks are laid out in the order they are started, which
    defines fall-through control flow. *)

type t

(** A builder appending into [func]. *)
val create : Func.t -> t

(** Start (and switch to) a new block with the given label. *)
val start_block : t -> string -> Block.t

(** Append a raw instruction. *)
val emit :
  ?pred:Reg.t ->
  ?dsts:Reg.t list ->
  ?srcs:Operand.t list ->
  t ->
  Opcode.t ->
  Instr.t

val fresh : t -> Reg.cls -> Reg.t
val fresh_int : t -> Reg.t
val fresh_pred : t -> Reg.t
val fresh_label : t -> string -> string

val mov : t -> Reg.t -> Operand.t -> unit
val movi : t -> Reg.t -> int -> unit
val binop : t -> Opcode.t -> Reg.t -> Operand.t -> Operand.t -> unit
val add : t -> Reg.t -> Operand.t -> Operand.t -> unit
val sub : t -> Reg.t -> Operand.t -> Operand.t -> unit
val mul : t -> Reg.t -> Operand.t -> Operand.t -> unit

(** [cmp b c pt pf x y] emits a compare writing the predicate pair. *)
val cmp :
  ?ctype:Opcode.ctype -> t -> Opcode.icmp -> Reg.t -> Reg.t -> Operand.t -> Operand.t -> unit

val load : ?size:Opcode.size -> ?spec:Opcode.spec_kind -> t -> Reg.t -> Operand.t -> Instr.t
val store : ?size:Opcode.size -> t -> Operand.t -> Operand.t -> Instr.t

(** Unconditional (or, with [?pred], guarded) branch to a label. *)
val br : t -> ?pred:Reg.t -> string -> unit

val call : t -> ?dsts:Reg.t list -> string -> Operand.t list -> Instr.t
val call_indirect : t -> ?dsts:Reg.t list -> Reg.t -> Operand.t list -> Instr.t
val ret : t -> Operand.t list -> unit

(** [lea b d sym off] loads the address of global or function [sym]. *)
val lea : t -> Reg.t -> string -> int -> unit

(** Compare-and-branch: branch to [target] when the comparison holds;
    returns the (true, false) predicate pair for reuse. *)
val cbr : t -> Opcode.icmp -> Operand.t -> Operand.t -> string -> Reg.t * Reg.t
