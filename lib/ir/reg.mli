(** Registers of the low-level IR: virtual before allocation, physical
    (IA-64 conventions) after. *)

type cls =
  | Int  (** general-purpose integer; carries a NaT bit *)
  | Flt  (** floating point *)
  | Prd  (** one-bit predicate *)
  | Brr  (** branch register *)

type t = { id : int; cls : cls; phys : bool }

val equal : t -> t -> bool
val hash : t -> int

val virt : int -> cls -> t
val phys : int -> cls -> t

(** {2 Distinguished physical registers} *)

val r0 : t  (** hardwired zero *)

val sp : t  (** r12, the memory stack pointer *)

val p0 : t  (** the always-true predicate *)

val ret0 : t  (** r8, first integer return register *)

(** {2 Register-file geometry (IA-64)} *)

val num_int : int
val num_flt : int
val num_prd : int

val first_stacked : int  (** r32 starts the register stack *)

val num_stacked_physical : int  (** 96 physical stacked registers *)

(** Is this a physical register of the register stack (r32-r127)? *)
val is_stacked : t -> bool

val pp : Format.formatter -> t -> unit

module Ord : sig
  type nonrec t = t

  val compare : t -> t -> int
end

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
