(** The architectural rules of the modelled IA-64 subset, shared by the
    reference interpreter and the machine simulator: the register bank,
    the integer and float ALU, the zero-divisor rule, the compare
    relations and the compare-target rule, the conversion of a value
    written into a register (moves, conversions and call bindings), the
    fault-or-defer policy of memory accesses, wild loads,
    speculation-check recovery and the ALAT.

    The ALU, compare and move rules come as decode-time builders: each
    returns the instruction's op, a closure over the {!bank} specialised
    on its opcode, relation and operand shape.  The interpreter runs that op as
    it is; the machine adds its timing around it.  The other rules return
    their decision, or a fault's message, for each engine to act on. *)

(** An architectural fault: the program is wrong. *)
exception Fault of string

(** The dynamic instruction budget was exhausted. *)
exception Out_of_fuel

(** The fault of an instruction whose operands do not fit its opcode. *)
val malformed : Instr.t -> string

(** [access_fault spec access addr]: the fatal fault, if any, of an access
    of kind [spec] to [addr], whose page classifies as [access].  Off a
    mapped page a control-speculative load ([Spec_general],
    [Spec_sentinel]) defers — its destination becomes NaT — and anything
    else (a store is [Nonspec]) faults, one message per page class. *)
val access_fault : Opcode.spec_kind -> Memimage.access -> int64 -> string option

(** [wild_load spec access]: whether a deferred load of kind [spec] of a
    page classed [access] is the paper's wild load — a [Spec_general] load
    of an unmapped page, which walks the page table before it defers.  A
    sentinel load defers without a walk, and the NaT page defers cheaply;
    neither counts. *)
val wild_load : Opcode.spec_kind -> Memimage.access -> bool

type recovery =
  | Reloaded  (** the value is in the buffer *)
  | Nat_address  (** one NaT consumption; the checked register becomes NaT *)
  | Recovery_fault of string  (** as {!access_fault} *)

(** [recover mem ~nat addr ~size buf o]: the recovery of a chk.s whose
    register is NaT or a chk.a whose ALAT entry is gone — a
    non-speculative load of [size] bytes from [addr] (NaT when [nat])
    into [buf] at byte offset [o], native-endian. *)
val recover : Memimage.t -> nat:bool -> int64 -> size:int -> Bytes.t -> int -> recovery

(** The advanced load address table of one frame: an entry per
    destination register of an ld.a, holding the bytes it read.  A store
    to any of them removes the entry, a call flushes the table, and a
    chk.a whose entry is gone recovers. *)
module Alat : sig
  type t = private {
    mutable count : int;  (** live entries: a store tests [count > 0] inline *)
    mutable e : int array;
  }

  val create : unit -> t

  (** The entry key of register number [reg] (the engine's numbering
      within the bank) of class [cls]: r14 and f14 differ. *)
  val key : Reg.cls -> int -> int

  (** [insert t key addr size]: an ld.a of [size] bytes at [addr]. *)
  val insert : t -> int -> int -> int -> unit

  (** [snoop t addr size]: a store of [size] bytes at [addr]. *)
  val snoop : t -> int -> int -> unit

  val mem : t -> int -> bool
  val flush : t -> unit

  (** A private copy, for a checkpoint and its resumes. *)
  val copy : t -> t
end

(** {2 The register bank} *)

(** One frame's registers, by slot: the engine numbers them (the
    interpreter densely per function, the machine by register id) and
    builds every op on slots inside the bank it runs on. *)
type bank = {
  ints : Bytes.t;  (** integer slot [k] at byte offset [8k], native-endian *)
  inat : bool array;  (** the integer slots' NaT bits *)
  flts : float array;
  fnat : bool array;
  prds : bool array;
  mutable alat : Alat.t;
}

(** A bank of [ints], [flts] and [prds] slots, every one 0 (false) and
    not NaT, and an empty ALAT. *)
val new_bank : ints:int -> flts:int -> prds:int -> bank

(** A private copy, for a checkpoint and its resumes. *)
val copy_bank : bank -> bank

(** A decoded instruction. *)
type op = bank -> unit

(** A source operand: a slot of one of the banks, or a constant (a label
    reads as 0, a symbol as its address).  A value of one class read in
    another converts as a register write of that class would. *)
type opnd = Int of int | Flt of int | Prd of int | Imm of int64 | Fimm of float

(** A destination slot; a write coerces to its class.  An engine sends
    writes to r0 and p0 to a slot nothing reads. *)
type dst = Dint of int | Dflt of int | Dprd of int

(** A qualifying predicate: none, a predicate slot, or another operand
    (true when non-zero and not NaT). *)
type guard = Always | If of int | If_opnd of opnd

val is_nat : bank -> opnd -> bool

(** [body] behind guard [g]: a false guard squashes it. *)
val guarded : guard -> op -> op

(** {2 ALU and compares} *)

(** [alu op ~spec d a b]: the integer op [d := a op b] of an [Add], [Sub],
    [Mul], [Div], [Rem], [And], [Or], [Xor], [Shl], [Shr], [Sra] or [Lea]
    (an add).  A NaT source makes [d] NaT.  Shift counts are taken mod 64.
    A zero divisor defers ([d] becomes NaT) when [spec] — the instruction
    was speculated — and raises {!Fault} otherwise.  Two constant sources
    decode to a constant. *)
val alu : Opcode.t -> spec:bool -> dst -> opnd -> opnd -> op

(** [falu op d a b]: [Fadd], [Fsub], [Fmul] or [Fdiv]; [d] is NaT when a
    source is. *)
val falu : Opcode.t -> dst -> opnd -> opnd -> op

(** [cmp op g pt pf a b]: the [Cmp] or [Fcmp] [op] of [a] and [b] into
    predicate slots [pt] and [pf], behind guard [g].  Under a true guard,
    norm and unc write (holds, not holds), or clear both on a NaT input;
    or-form sets both when the relation holds on clean inputs and leaves
    them otherwise.  Under a false guard only unc writes: it clears
    both. *)
val cmp : Opcode.t -> guard -> int -> int -> opnd -> opnd -> op

(** The relations: signed, and unsigned for [Ltu]/[Geu]. *)
val icmp : Opcode.icmp -> int64 -> int64 -> bool

(** {2 Data movement}

    A value written into a register converts to the register's class: an
    integer to a float by value, a float to an integer by truncation, a
    predicate to 1 or 0, and a value to a predicate as "not 0" (a float:
    false).  A NaT source makes an integer or float destination NaT and
    clears a predicate one. *)

(** [move op d a]: the [Mov], [Sxt], [Cvt_fi], [Cvt_if] or [Fneg] of [a]
    into [d].  sxt sign-extends an integer source from its size and moves
    any other as mov does; cvt.fi truncates the source read as a float,
    cvt.if converts it read as an integer, and fneg negates it read as a
    float.  An integer copy and an integer constant each decode to a
    closure of their own. *)
val move : Opcode.t -> dst -> opnd -> op

(** [bind src vs dst ds ~pad]: a call binding values [vs], read in bank
    [src], to the registers [ds] of bank [dst] — the arguments of a call
    to its parameters, or the values of a return to the call's results —
    each converting as {!move}'s mov does.  A destination past the values
    keeps its contents, or with [pad] reads 0. *)
val bind : bank -> opnd array -> bank -> dst array -> pad:bool -> unit

(** [int_args bk args buf nats n]: the first [n] of an intrinsic's
    [args], read as integers ({!Intrinsics.call}'s arguments): word [j]
    of [buf] at byte [8j], native-endian, and its NaT bit [nats.(j)]. *)
val int_args : bank -> opnd array -> Bytes.t -> bool array -> int -> unit

(** [write_int bk d x]: integer [x] written to [d], converted to its
    class (an intrinsic's result). *)
val write_int : bank -> dst -> int64 -> unit

(** The exit code of a program whose entry function returned [vs], read
    in [bk]: the first value when it is an integer register without NaT or
    an integer constant, otherwise 0. *)
val exit_code : bank -> opnd array -> int
