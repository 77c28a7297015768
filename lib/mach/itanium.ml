(* The machine model used by the scheduler and bundler: execution unit
   classes, per-cycle issue capacities and planned operation latencies.  All
   numbers come from the machine description (Machine_desc.t) each function
   is given; the driver passes the one it compiles for, normally
   [Machine_desc.itanium2] (six-issue: up to two bundles per cycle, figures
   following the Itanium 2 reference manual, scaled where DESIGN.md says
   so). *)

open Epic_ir

(* IA-64 execution unit classes.  A-type ALU operations may issue on either
   an M or an I slot, which is what makes the machine "six-ALU". *)
type unit_class = UA | UI | UM | UF | UB

let class_of (op : Opcode.t) =
  match op with
  | Opcode.Add | Opcode.Sub | Opcode.And | Opcode.Or | Opcode.Xor
  | Opcode.Mov | Opcode.Lea | Opcode.Cmp _ ->
      UA
  | Opcode.Shl | Opcode.Shr | Opcode.Sra | Opcode.Sxt _ | Opcode.Mul
  | Opcode.Div | Opcode.Rem ->
      UI
  | Opcode.Ld _ | Opcode.St _ | Opcode.Chk _ | Opcode.Chka _ | Opcode.Alloc -> UM
  | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv | Opcode.Fneg
  | Opcode.Fcmp _ | Opcode.Cvt_fi | Opcode.Cvt_if ->
      UF
  | Opcode.Br | Opcode.Br_call | Opcode.Br_ret -> UB
  | Opcode.Nop -> UA

(* Planned (static) result latency in cycles under description [d]: the
   delay the compiler must schedule between a producer and its consumer. *)
let latency (d : Machine_desc.t) (op : Opcode.t) =
  match op with
  | Opcode.Add | Opcode.Sub | Opcode.And | Opcode.Or | Opcode.Xor
  | Opcode.Mov | Opcode.Lea | Opcode.Sxt _ ->
      d.Machine_desc.lat_alu
  | Opcode.Shl | Opcode.Shr | Opcode.Sra -> d.Machine_desc.lat_alu
  | Opcode.Cmp _ ->
      d.Machine_desc.lat_alu (* 0 to a dependent branch; see [dep_latency] *)
  | Opcode.Mul -> d.Machine_desc.lat_mul
  | Opcode.Div | Opcode.Rem -> d.Machine_desc.lat_div
  | Opcode.Ld (_, _) -> d.Machine_desc.lat_load
  | Opcode.St _ -> d.Machine_desc.lat_alu
  | Opcode.Chk _ | Opcode.Chka _ -> d.Machine_desc.lat_alu
  | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fneg | Opcode.Fcmp _ ->
      d.Machine_desc.lat_fp
  | Opcode.Fdiv -> d.Machine_desc.lat_fdiv
  | Opcode.Cvt_fi | Opcode.Cvt_if -> d.Machine_desc.lat_fp
  | Opcode.Br | Opcode.Br_call | Opcode.Br_ret | Opcode.Alloc | Opcode.Nop ->
      d.Machine_desc.lat_alu

(* Latency of a register dependence from [producer] to [consumer] through
   register [r].  IA-64 allows a compare and a branch that consumes its
   predicate in the same instruction group. *)
let dep_latency d (producer : Instr.t) (consumer : Instr.t) (r : Reg.t) =
  match (producer.Instr.op, consumer.Instr.op) with
  | (Opcode.Cmp _ | Opcode.Fcmp _), (Opcode.Br | Opcode.Br_call | Opcode.Br_ret)
    when r.Reg.cls = Reg.Prd ->
      0
  | _ -> latency d producer.Instr.op

(* Per-cycle issue capacities (itanium2: two bundles = six slots). *)
type caps = {
  mutable total : int;
  mutable m : int; (* memory slots *)
  mutable i : int;
  mutable f : int;
  mutable b : int;
  mutable ld : int; (* load pipes within M *)
  mutable st : int; (* store pipes within M *)
}

let fresh_caps (d : Machine_desc.t) =
  {
    total = d.Machine_desc.issue_width;
    m = d.Machine_desc.m_slots;
    i = d.Machine_desc.i_slots;
    f = d.Machine_desc.f_slots;
    b = d.Machine_desc.b_slots;
    ld = d.Machine_desc.ld_pipes;
    st = d.Machine_desc.st_pipes;
  }

(* Try to account one instruction against [caps]; true if it fits. *)
let take caps (i : Instr.t) =
  if caps.total = 0 then false
  else
    let ok =
      match class_of i.Instr.op with
      | UM ->
          if Instr.is_load i then
            if caps.m > 0 && caps.ld > 0 then (
              caps.m <- caps.m - 1;
              caps.ld <- caps.ld - 1;
              true)
            else false
          else if Instr.is_store i then
            if caps.m > 0 && caps.st > 0 then (
              caps.m <- caps.m - 1;
              caps.st <- caps.st - 1;
              true)
            else false
          else if caps.m > 0 then (
            caps.m <- caps.m - 1;
            true)
          else false
      | UI ->
          if caps.i > 0 then (
            caps.i <- caps.i - 1;
            true)
          else false
      | UA ->
          (* A-type: prefer an I slot, fall back to M *)
          if caps.i > 0 then (
            caps.i <- caps.i - 1;
            true)
          else if caps.m > 0 then (
            caps.m <- caps.m - 1;
            true)
          else false
      | UF ->
          if caps.f > 0 then (
            caps.f <- caps.f - 1;
            true)
          else false
      | UB ->
          if caps.b > 0 then (
            caps.b <- caps.b - 1;
            true)
          else false
    in
    if ok then caps.total <- caps.total - 1;
    ok

(* Code-layout geometry the backend reads (function padding, fetch chunks). *)
let l1i_line (d : Machine_desc.t) = d.Machine_desc.l1i.Machine_desc.line
