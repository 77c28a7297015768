(* Opcodes of the low-level IR.  The set mirrors the IA-64 subset the IMPACT
   compiler uses on Itanium 2: integer ALU, compares writing predicate pairs,
   memory operations with control-speculation variants, speculation checks,
   predicated branches, calls and the register-stack [alloc]. *)

type icmp = Eq | Ne | Lt | Le | Gt | Ge | Ltu | Geu

(* IA-64 compare types.  [Norm] writes both predicate targets only when the
   qualifying predicate is true.  [Unc] ("unconditional") clears both targets
   first, then writes them when the guard is true — the form if-conversion
   uses for nested conditions.  [Orform] sets (never clears) the targets when
   the guard is true and the condition holds, for wired-or evaluation of
   multi-term conditions in hyperblocks. *)
type ctype = Norm | Unc | Orform

type size = B1 | B4 | B8

(* How a load is marked for control speculation (Section 4.3 of the paper).
   [Spec_general] completes speculative accesses eagerly, possibly walking the
   page table off-path ("wild loads"); [Spec_sentinel] defers failing accesses
   by writing NaT and relies on a later [Chk]. *)
type spec_kind =
  | Nonspec
  | Spec_general
  | Spec_sentinel
  | Spec_advanced
      (* data speculation: an advanced load (ld.a) allocates an ALAT entry;
         intervening stores invalidate overlapping entries and the paired
         chk.a recovers by reloading *)

type t =
  (* Integer ALU (A-type: may issue on any M or I port). *)
  | Add
  | Sub
  | Mul (* issues on F ports on Itanium, latency > ALU *)
  | Div (* expanded sequence on real HW; modelled as long-latency I op *)
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr (* logical *)
  | Sra (* arithmetic *)
  | Mov (* dst <- reg/imm *)
  | Lea (* dst <- symbol address + offset: srcs = [Sym s; Imm off] *)
  | Sxt of size (* sign extend from [size] *)
  | Cmp of icmp * ctype (* dsts = [p_true; p_false], srcs = [a; b] *)
  (* Floating point. *)
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fneg
  | Fcmp of icmp * ctype (* dsts = [p_true; p_false] *)
  | Cvt_fi (* float -> int (truncate) *)
  | Cvt_if (* int -> float *)
  (* Memory. *)
  | Ld of size * spec_kind (* dst <- [addr]; srcs = [addr] *)
  | St of size (* [addr] <- value; srcs = [addr; value] *)
  | Chk of size
    (* sentinel speculation check: srcs = [checked reg; addr].  On NaT the
       recovery reloads [addr] non-speculatively into the checked register
       (compiler-generated recovery block, modelled in place; see DESIGN.md) *)
  | Chka of size
    (* data speculation check: srcs = [checked reg; addr].  If the ALAT no
       longer holds a valid entry for the register, recovery reloads *)
  (* Control.  All branches may be guarded by the instruction predicate. *)
  | Br (* direct branch: srcs = [Label l] *)
  | Br_call (* srcs = [Sym f; args...] or [Reg b; args...]; dsts = results *)
  | Br_ret (* srcs = return values *)
  | Alloc (* register-stack frame allocation; sizes kept in attrs *)
  | Nop

let is_branch = function Br | Br_call | Br_ret -> true | _ -> false
let is_call = function Br_call -> true | _ -> false
let is_load = function Ld _ -> true | _ -> false
let is_store = function St _ -> true | _ -> false
let is_mem op = is_load op || is_store op

let is_speculative_load = function
  | Ld (_, (Spec_general | Spec_sentinel | Spec_advanced)) -> true
  | _ -> false

(* Operations that may raise a fault or have observable side effects, and so
   may not be hoisted above a branch without speculation support. *)
let may_fault = function
  (* advanced (data-speculated) loads may still fault: they are free to
     cross stores, not branches *)
  | Ld (_, (Nonspec | Spec_advanced)) | St _ | Div | Rem | Br_call | Chk _ | Chka _ ->
      true
  | _ -> false

let is_float = function
  | Fadd | Fsub | Fmul | Fdiv | Fneg | Fcmp _ | Cvt_fi | Cvt_if -> true
  | _ -> false

let icmp_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Ltu -> "ltu"
  | Geu -> "geu"

let ctype_suffix = function Norm -> "" | Unc -> ".unc" | Orform -> ".or"
let size_to_string = function B1 -> "1" | B4 -> "4" | B8 -> "8"
let size_bytes = function B1 -> 1 | B4 -> 4 | B8 -> 8

let to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sra -> "sra"
  | Mov -> "mov"
  | Lea -> "lea"
  | Sxt s -> "sxt" ^ size_to_string s
  | Cmp (c, ct) -> "cmp." ^ icmp_to_string c ^ ctype_suffix ct
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Fneg -> "fneg"
  | Fcmp (c, ct) -> "fcmp." ^ icmp_to_string c ^ ctype_suffix ct
  | Cvt_fi -> "cvt.fi"
  | Cvt_if -> "cvt.if"
  | Ld (s, Nonspec) -> "ld" ^ size_to_string s
  | Ld (s, Spec_general) -> "ld" ^ size_to_string s ^ ".s"
  | Ld (s, Spec_sentinel) -> "ld" ^ size_to_string s ^ ".sa"
  | Ld (s, Spec_advanced) -> "ld" ^ size_to_string s ^ ".a"
  | St s -> "st" ^ size_to_string s
  | Chk s -> "chk.s" ^ size_to_string s
  | Chka s -> "chk.a" ^ size_to_string s
  | Br -> "br"
  | Br_call -> "br.call"
  | Br_ret -> "br.ret"
  | Alloc -> "alloc"
  | Nop -> "nop"

let pp ppf op = Fmt.string ppf (to_string op)
