(** Instruction source operands. *)

type t =
  | Reg of Reg.t
  | Imm of int64
  | Fimm of float
  | Label of string  (** a branch target: a block label within the function *)
  | Sym of string  (** a global symbol: function or data *)

val reg : Reg.t -> t
val imm : int -> t
val imm64 : int64 -> t

(** Structural identity.  Float immediates compare by bit pattern, so [0.0]
    and [-0.0] differ. *)
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
