(** Functions: an ordered list of blocks (layout order — the first block is
    the entry and fall-through follows layout), parameter registers, and
    counters for fresh virtual registers and labels. *)

type index
(** Predecoded label->block / block->fallthrough tables (DESIGN.md §10).
    Built lazily by {!find_block}/{!fallthrough}; keyed on the physical
    identity of [blocks], so any structural change (which necessarily
    replaces the immutable list spine) invalidates it automatically. *)

type t = {
  name : string;
  mutable params : Reg.t list;
  mutable blocks : Block.t list;  (** layout order; head = entry *)
  mutable next_reg : int;
  mutable next_label : int;
  mutable frame_bytes : int;  (** memory-stack frame (arrays, spills) *)
  mutable n_stacked : int;  (** stacked registers used; set by regalloc *)
  mutable returns_float : bool;
  mutable index : index option;  (** label-index cache; managed internally *)
}

val create : string -> Reg.t list -> t

(** A structural deep copy: fresh blocks and instructions (ids preserved,
    see [Instr.clone]); registers are immutable and stay shared. *)
val copy : t -> t

(** The entry block.  @raise Invalid_argument on an empty function. *)
val entry : t -> Block.t

val fresh_reg : t -> Reg.cls -> Reg.t
val fresh_label : t -> string -> string
val find_block : t -> string -> Block.t option
val find_block_exn : t -> string -> Block.t

(** The block control falls through to from [b] (the next in layout). *)
val fallthrough : t -> Block.t -> Block.t option

(** All successors of a block: explicit branch targets plus the
    fall-through block when the block can fall through. *)
val successors : t -> Block.t -> string list

(** Map from block label to the labels of its predecessors. *)
val predecessors : t -> (string, string list) Hashtbl.t

val iter_instrs : t -> (Instr.t -> unit) -> unit
val fold_instrs : t -> ('a -> Instr.t -> 'a) -> 'a -> 'a
val instr_count : t -> int
val insert_after : t -> Block.t -> Block.t -> unit
val append_block : t -> Block.t -> unit

(** Remove blocks unreachable from the entry (keeping reachable recovery
    blocks referenced by speculation checks). *)
val remove_unreachable : t -> unit

(** Move cold-marked blocks to the end of the layout, preserving relative
    order.  Callers must have made the affected fall-throughs explicit. *)
val layout_cold_last : t -> unit

val pp : Format.formatter -> t -> unit
