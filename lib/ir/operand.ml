(* Instruction source operands. *)

type t =
  | Reg of Reg.t
  | Imm of int64
  | Fimm of float
  | Label of string (* branch target: a block label within the function *)
  | Sym of string (* a global symbol: function or data *)

let reg r = Reg r
let imm i = Imm (Int64.of_int i)
let imm64 i = Imm i

let equal a b =
  match (a, b) with
  | Reg r1, Reg r2 -> Reg.equal r1 r2
  | Imm i1, Imm i2 -> Int64.equal i1 i2
  | Fimm f1, Fimm f2 ->
      (* bit identity: [Float.equal] would merge 0.0 with -0.0 *)
      Int64.equal (Int64.bits_of_float f1) (Int64.bits_of_float f2)
  | Label l1, Label l2 | Sym l1, Sym l2 -> String.equal l1 l2
  | (Reg _ | Imm _ | Fimm _ | Label _ | Sym _), _ -> false

let pp ppf = function
  | Reg r -> Reg.pp ppf r
  | Imm i -> Fmt.pf ppf "%Ld" i
  | Fimm f -> Fmt.pf ppf "%g" f
  | Label l -> Fmt.pf ppf ".%s" l
  | Sym s -> Fmt.pf ppf "@%s" s
