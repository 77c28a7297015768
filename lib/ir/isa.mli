(** The architectural rules of the modelled IA-64 subset, shared by the
    reference interpreter and the machine simulator: the fault-or-defer
    policy of memory accesses, speculation-check recovery and the ALAT.
    A rule returns its decision, or a fault's message; each engine acts on
    it with its own registers, timing, counters and exceptions. *)

(** The fault of an instruction whose operands do not fit its opcode. *)
val malformed : Instr.t -> string

(** [access_fault spec access addr]: the fatal fault, if any, of an access
    of kind [spec] to [addr], whose page classifies as [access].  Off a
    mapped page a control-speculative load ([Spec_general],
    [Spec_sentinel]) defers — its destination becomes NaT — and anything
    else (a store is [Nonspec]) faults, one message per page class. *)
val access_fault : Opcode.spec_kind -> Memimage.access -> int64 -> string option

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
