(* An imperative construction interface over the IR, used by the frontend's
   lowering pass, by tests and by the examples.  The builder maintains a
   current block; emitted instructions are appended to it. *)

type t = {
  func : Func.t;
  mutable cur : Block.t option;
}

let create func = { func; cur = None }

(* Start a new block with the given label and make it current.  Blocks are
   laid out in the order they are started. *)
let start_block b label =
  let blk = Block.create label in
  Func.append_block b.func blk;
  b.cur <- Some blk;
  blk

let current b =
  match b.cur with
  | Some blk -> blk
  | None -> invalid_arg "Builder: no current block (call start_block first)"

let emit ?pred ?(dsts = []) ?(srcs = []) b op =
  let i = Instr.create ?pred ~dsts ~srcs op in
  Block.append (current b) i;
  i

let fresh b cls = Func.fresh_reg b.func cls
let fresh_int b = fresh b Reg.Int
let fresh_pred b = fresh b Reg.Prd
let fresh_label b base = Func.fresh_label b.func base

(* Convenience emitters. *)

let mov b dst src = ignore (emit b Opcode.Mov ~dsts:[ dst ] ~srcs:[ src ])

let movi b dst k = mov b dst (Operand.imm k)

let binop b op dst a c = ignore (emit b op ~dsts:[ dst ] ~srcs:[ a; c ])

let add b dst a c = binop b Opcode.Add dst a c
let sub b dst a c = binop b Opcode.Sub dst a c
let mul b dst a c = binop b Opcode.Mul dst a c

let cmp ?(ctype = Opcode.Norm) b c pt pf a a' =
  ignore (emit b (Opcode.Cmp (c, ctype)) ~dsts:[ pt; pf ] ~srcs:[ a; a' ])

let load ?(size = Opcode.B8) ?(spec = Opcode.Nonspec) b dst addr =
  emit b (Opcode.Ld (size, spec)) ~dsts:[ dst ] ~srcs:[ addr ]

let store ?(size = Opcode.B8) b addr v =
  emit b (Opcode.St size) ~srcs:[ addr; v ]

let br b ?pred target =
  ignore (emit ?pred b Opcode.Br ~srcs:[ Operand.Label target ])

let call b ?(dsts = []) fname args =
  emit b Opcode.Br_call ~dsts ~srcs:(Operand.Sym fname :: args)

let call_indirect b ?(dsts = []) target args =
  emit b Opcode.Br_call ~dsts ~srcs:(Operand.Reg target :: args)

let ret b vals = ignore (emit b Opcode.Br_ret ~srcs:vals)

let lea b dst sym off =
  ignore
    (emit b Opcode.Lea ~dsts:[ dst ]
       ~srcs:[ Operand.Sym sym; Operand.imm off ])

(* Conditional branch: compare [a] and [c] with [cond]; branch to [target]
   when true.  Returns the true/false predicates for reuse. *)
let cbr b cond a c target =
  let pt = fresh_pred b and pf = fresh_pred b in
  cmp b cond pt pf a c;
  ignore (emit ~pred:pt b Opcode.Br ~srcs:[ Operand.Label target ]);
  (pt, pf)
