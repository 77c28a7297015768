(** Basic blocks — or, after structural transformation, superblocks and
    hyperblocks.  A block is a straight-line instruction sequence that may
    contain internal side-exit branches (superblocks) and predicated
    instructions (hyperblocks).  Control that takes no branch falls through
    to the next block in the function's layout order, so layout order is
    meaningful both semantically and for instruction-cache behaviour. *)

type kind =
  | Plain
  | Super  (** single-entry trace formed by superblock formation *)
  | Hyper  (** if-converted predicated region *)
  | Recovery  (** sentinel-speculation recovery code; laid out cold *)

type t = {
  label : string;
  mutable instrs : Instr.t list;
  mutable weight : float;  (** profiled entry count *)
  mutable kind : kind;
  mutable cold : bool;  (** laid out in the function's cold section *)
}

val create : ?kind:kind -> string -> t

(** A snapshot deep copy: fresh instruction cells with the same ids
    ([Instr.clone]), so snapshotting never perturbs the global id counter. *)
val copy : t -> t
val append : t -> Instr.t -> unit
val instr_count : t -> int

(** Labels this block can branch to, in instruction order (the fall-through
    successor is not included; see [Func.successors]). *)
val branch_targets : t -> string list

(** True when control cannot fall through past the end of this block. *)
val ends_in_unconditional : t -> bool

val pp : Format.formatter -> t -> unit
