(** IR instructions.  Mutable records, rewritten in place by the
    transformation passes (the Lcode tradition).  Every instruction carries
    a unique id used for profile annotation, memory-dependence tags and
    performance-monitor attribution. *)

type attrs = {
  mutable mem_tag : int list option;
      (** sorted abstract-location ids this memory op may touch; [None]
          means unknown (conservatively aliases everything) *)
  mutable taken_prob : float;  (** branches: profiled taken probability *)
  mutable weight : float;  (** profiled dynamic execution count *)
  mutable recovery : string option;  (** Chk: label of the recovery block *)
  mutable check_reg : Reg.t option;  (** chk.s/chk.a: the checked register *)
  mutable frame_in : int;
  mutable frame_local : int;
  mutable speculated : bool;  (** hoisted or promoted above its guard *)
  mutable promoted : bool;  (** speculated via predicate promotion *)
  mutable origin : int;  (** id of the instruction this was copied from *)
}

type t = {
  id : int;
  mutable op : Opcode.t;
  mutable dsts : Reg.t list;
  mutable srcs : Operand.t list;
  mutable pred : Reg.t option;  (** qualifying predicate; [None] = always *)
  mutable cycle : int;  (** issue cycle within the block; -1 = unscheduled *)
  attrs : attrs;
}

(** Reset the id counter (done per program by the frontend).  The counter
    is domain-local (one per domain): concurrent compilations on distinct
    domains draw from independent counters, and because every compilation
    starts from a reset, the ids assigned to a program do not depend on
    which domain compiled it. *)
val reset_ids : unit -> unit

(** Current value of this domain's id counter. *)
val id_counter : unit -> int

(** Restore the global id counter to a previously saved value.  Used by the
    driver's register-pressure fallback so that recompiling from a snapshot
    assigns the same ids a recompile from source would. *)
val restore_ids : int -> unit

val create : ?pred:Reg.t -> ?dsts:Reg.t list -> ?srcs:Operand.t list -> Opcode.t -> t

(** Structural copy with a fresh id; [origin] records provenance across
    duplication (tail duplication, peeling, inlining). *)
val copy : t -> t

(** Identity-preserving structural copy: same id and provenance, fresh
    mutable cells.  For program snapshots ({!Program.copy}); does not draw
    from the id counter. *)
val clone : t -> t

val is_branch : t -> bool
val is_call : t -> bool
val is_load : t -> bool
val is_store : t -> bool
val is_mem : t -> bool

(** May executing this instruction fault or have side effects (so it cannot
    be hoisted above a branch without speculation support)? *)
val may_fault : t -> bool

(** Registers read, including the qualifying predicate. *)
val uses : t -> Reg.t list

val defs : t -> Reg.t list

(** Branch target label, for direct branches. *)
val branch_target : t -> string option

(** Callee symbol, for direct calls. *)
val callee : t -> string option

(** Rewrite register uses (sources and the guard) through [subst]. *)
val substitute_uses : (Reg.t -> Reg.t option) -> t -> unit

val substitute_defs : (Reg.t -> Reg.t option) -> t -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
