(** Opcodes of the low-level IR: the IA-64 subset the IMPACT compiler uses
    on Itanium 2 — integer and FP ALU, compares writing predicate pairs,
    memory operations with control- and data-speculation variants,
    speculation checks, predicated branches, calls, and the register-stack
    [alloc]. *)

type icmp = Eq | Ne | Lt | Le | Gt | Ge | Ltu | Geu

(** IA-64 compare types.  [Norm] writes both targets only when the guard is
    true.  [Unc] clears both targets first and writes when the guard is
    true — the form if-conversion uses for nested conditions.  [Orform]
    only ever sets its targets, for wired-or multi-term conditions. *)
type ctype = Norm | Unc | Orform

type size = B1 | B4 | B8

(** Speculation marking of loads (paper Sections 2.2, 4.3 and the data-
    speculation extension). *)
type spec_kind =
  | Nonspec
  | Spec_general  (** completes eagerly; off-path misses walk page tables *)
  | Spec_sentinel  (** defers failures as NaT; chk.s recovers *)
  | Spec_advanced  (** data speculation: allocates an ALAT entry; chk.a *)

type t =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr  (** logical *)
  | Sra  (** arithmetic *)
  | Mov
  | Lea  (** dst <- symbol address + offset: srcs = [Sym s; Imm off] *)
  | Sxt of size
  | Cmp of icmp * ctype  (** dsts = [p_true; p_false] *)
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fneg
  | Fcmp of icmp * ctype
  | Cvt_fi
  | Cvt_if
  | Ld of size * spec_kind  (** dst <- [addr] *)
  | St of size  (** srcs = [addr; value] *)
  | Chk of size  (** sentinel check: srcs = [checked reg; addr] *)
  | Chka of size  (** ALAT check: srcs = [checked reg; addr] *)
  | Br  (** direct branch; guarded by the instruction predicate *)
  | Br_call  (** srcs = [Sym f | Reg fp; args...]; dsts = results *)
  | Br_ret  (** srcs = return values *)
  | Alloc
  | Nop

val is_branch : t -> bool
val is_call : t -> bool
val is_load : t -> bool
val is_store : t -> bool
val is_mem : t -> bool
val is_speculative_load : t -> bool

(** Operations that may fault or have side effects: not hoistable above
    branches without (control-)speculation support.  Advanced loads remain
    may-fault: data speculation frees them from stores, not branches. *)
val may_fault : t -> bool

val is_float : t -> bool
val icmp_to_string : icmp -> string
val ctype_suffix : ctype -> string
val size_to_string : size -> string
val size_bytes : size -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit
