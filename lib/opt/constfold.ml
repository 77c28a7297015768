(* Local constant propagation and folding.  Works within each block with a
   forward scan: tracks registers holding known constants, rewrites uses, and
   folds ALU operations whose inputs are all constant.  Guarded definitions
   only invalidate (the write may not happen). *)

open Epic_ir

(* [Some (x op y)], or [None] when the op defers (a zero divisor): the
   ALU's register-register op, run as a speculated instruction on a
   scratch bank whose two slots hold [x] and [y]. *)
let fold_int op (x : int64) (y : int64) : int64 option =
  let bk = Isa.new_bank ~ints:2 ~flts:0 ~prds:0 in
  Bytes.set_int64_ne bk.Isa.ints 0 x;
  Bytes.set_int64_ne bk.Isa.ints 8 y;
  Isa.alu op ~spec:true (Isa.Dint 0) (Isa.Int 0) (Isa.Int 1) bk;
  if bk.Isa.inat.(0) then None else Some (Bytes.get_int64_ne bk.Isa.ints 0)

(* Algebraic identities that do not need both operands constant. *)
let identity op (a : Operand.t) (b : Operand.t) : Operand.t option =
  match (op, a, b) with
  | Opcode.Add, x, Operand.Imm 0L | Opcode.Add, Operand.Imm 0L, x -> Some x
  | Opcode.Sub, x, Operand.Imm 0L -> Some x
  | Opcode.Mul, x, Operand.Imm 1L | Opcode.Mul, Operand.Imm 1L, x -> Some x
  | Opcode.Mul, _, Operand.Imm 0L | Opcode.Mul, Operand.Imm 0L, _ ->
      Some (Operand.Imm 0L)
  | Opcode.Div, x, Operand.Imm 1L -> Some x
  | (Opcode.Shl | Opcode.Shr | Opcode.Sra), x, Operand.Imm 0L -> Some x
  | Opcode.And, _, Operand.Imm 0L | Opcode.And, Operand.Imm 0L, _ ->
      Some (Operand.Imm 0L)
  | Opcode.Or, x, Operand.Imm 0L | Opcode.Or, Operand.Imm 0L, x -> Some x
  | Opcode.Xor, x, Operand.Imm 0L | Opcode.Xor, Operand.Imm 0L, x -> Some x
  | _ -> None

let run_block (b : Block.t) =
  let consts : Operand.t Reg.Tbl.t = Reg.Tbl.create 16 in
  let changed = ref false in
  let invalidate (i : Instr.t) = List.iter (Reg.Tbl.remove consts) i.Instr.dsts in
  let subst (o : Operand.t) =
    match o with
    | Operand.Reg r -> (
        match Reg.Tbl.find_opt consts r with
        | Some c ->
            changed := true;
            c
        | None -> o)
    | _ -> o
  in
  List.iter
    (fun (i : Instr.t) ->
      (* Rewrite constant uses (not the guard: guards stay registers). *)
      i.Instr.srcs <- List.map subst i.Instr.srcs;
      let unguarded = i.Instr.pred = None in
      (match (i.Instr.op, i.Instr.dsts, i.Instr.srcs) with
      | Opcode.Mov, [ d ], [ (Operand.Imm _ | Operand.Fimm _) as c ] ->
          invalidate i;
          if unguarded then Reg.Tbl.replace consts d c
      | ( (Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem
          | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Shl | Opcode.Shr
          | Opcode.Sra),
          [ d ],
          [ a; b' ] ) -> (
          invalidate i;
          match (a, b') with
          | Operand.Imm x, Operand.Imm y -> (
              match fold_int i.Instr.op x y with
              | Some v ->
                  changed := true;
                  i.Instr.op <- Opcode.Mov;
                  i.Instr.srcs <- [ Operand.Imm v ];
                  if unguarded then Reg.Tbl.replace consts d (Operand.Imm v)
              | None -> ())
          | _ -> (
              match identity i.Instr.op a b' with
              | Some o ->
                  changed := true;
                  i.Instr.op <- Opcode.Mov;
                  i.Instr.srcs <- [ o ];
                  (match o with
                  | (Operand.Imm _ | Operand.Fimm _) when unguarded ->
                      Reg.Tbl.replace consts d o
                  | _ -> ())
              | None -> ()))
      | Opcode.Cmp (_, ct), [ _; _ ], [ Operand.Imm _; Operand.Imm _ ]
        when ct = Opcode.Norm && unguarded ->
          (* constant compares are left for jump optimization, which
             understands compares feeding branches *)
          invalidate i
      | _ -> invalidate i))
    b.Block.instrs;
  !changed

let run_func (f : Func.t) =
  List.fold_left (fun acc b -> run_block b || acc) false f.Func.blocks

let run (p : Program.t) =
  List.fold_left (fun acc f -> run_func f || acc) false p.Program.funcs
