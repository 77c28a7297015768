(* Local common-subexpression elimination by value numbering within a block.
   Pure integer/float ALU expressions and Lea are candidates; redundant
   loads within a block are also reused when no intervening may-aliasing
   store or call occurs. *)

open Epic_ir
open Epic_analysis

(* An expression is its opcode and source operands, compared structurally:
   float immediates by bit pattern ([Operand.equal]), so neither [0.1] and
   [0.1000001] nor [Imm 1] and [Fimm 1.] share a value number. *)
module Key = struct
  type t = Opcode.t * Operand.t list

  let equal ((o1, s1) : t) ((o2, s2) : t) = o1 = o2 && List.equal Operand.equal s1 s2

  let hash_operand = function
    | Operand.Reg r -> Reg.hash r
    | Operand.Imm i -> Hashtbl.hash i
    | Operand.Fimm f -> Hashtbl.hash f
    | Operand.Label l | Operand.Sym l -> Hashtbl.hash l

  let hash ((op, srcs) : t) =
    List.fold_left (fun h o -> (h * 31) + hash_operand o) (Hashtbl.hash op) srcs
    land max_int
end

module Key_tbl = Hashtbl.Make (Key)

let uses_reg r ((_, srcs) : Key.t) =
  List.exists (function Operand.Reg s -> Reg.equal s r | _ -> false) srcs

let is_pure_candidate (i : Instr.t) =
  i.Instr.pred = None
  &&
  match i.Instr.op with
  | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.And | Opcode.Or
  | Opcode.Xor | Opcode.Shl | Opcode.Shr | Opcode.Sra | Opcode.Lea
  | Opcode.Sxt _ | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Cvt_if
  | Opcode.Cvt_fi ->
      (* exclude sp-relative adds: sp changes at prologue boundaries *)
      not
        (List.exists
           (function Operand.Reg r -> Reg.equal r Reg.sp | _ -> false)
           i.Instr.srcs)
      && List.length i.Instr.dsts = 1
  | _ -> false

let is_load_candidate (i : Instr.t) =
  i.Instr.pred = None
  && (match i.Instr.op with Opcode.Ld (_, Opcode.Nonspec) -> true | _ -> false)
  && List.length i.Instr.dsts = 1

let run_block (b : Block.t) =
  let avail : Reg.t Key_tbl.t = Key_tbl.create 32 in
  let avail_loads : (Reg.t * Instr.t) Key_tbl.t = Key_tbl.create 16 in
  (* register -> the keys entered with it as a source or destination, so a
     redefinition visits only those.  Entries go stale when a key leaves
     its table (or returns with another destination); [invalidate_reg]
     re-checks each one before removing it. *)
  let mentions : Key.t list Reg.Tbl.t = Reg.Tbl.create 32 in
  let mention r k =
    Reg.Tbl.replace mentions r
      (k :: Option.value ~default:[] (Reg.Tbl.find_opt mentions r))
  in
  let changed = ref false in
  let invalidate_reg (r : Reg.t) =
    match Reg.Tbl.find_opt mentions r with
    | None -> ()
    | Some ks ->
        Reg.Tbl.remove mentions r;
        List.iter
          (fun k ->
            let stale d = Reg.equal d r || uses_reg r k in
            (match Key_tbl.find_opt avail k with
            | Some d when stale d -> Key_tbl.remove avail k
            | _ -> ());
            match Key_tbl.find_opt avail_loads k with
            | Some (d, _) when stale d -> Key_tbl.remove avail_loads k
            | _ -> ())
          ks
  in
  (* [i] computes [k] into [d]; [prev] holds the same value if available *)
  let value_number (i : Instr.t) k d prev enter =
    invalidate_reg d;
    match prev with
    | Some prev ->
        if not (Reg.equal d prev) then begin
          i.Instr.op <- Opcode.Mov;
          i.Instr.srcs <- [ Operand.Reg prev ];
          changed := true
        end
    | None ->
        (* an expression that reads its own destination is not available
           afterwards *)
        if not (uses_reg d k) then begin
          enter ();
          mention d k;
          List.iter (function Operand.Reg r -> mention r k | _ -> ()) (snd k)
        end
  in
  List.iter
    (fun (i : Instr.t) ->
      (match i.Instr.dsts with
      | [ d ] when is_pure_candidate i ->
          let k = (i.Instr.op, i.Instr.srcs) in
          value_number i k d (Key_tbl.find_opt avail k) (fun () ->
              Key_tbl.replace avail k d)
      | [ d ] when is_load_candidate i ->
          let k = (i.Instr.op, i.Instr.srcs) in
          value_number i k d
            (Option.map fst (Key_tbl.find_opt avail_loads k))
            (fun () -> Key_tbl.replace avail_loads k (d, i))
      | _ ->
          (* stores and calls kill aliasing loads; everything kills its dsts *)
          (match i.Instr.op with
          | Opcode.St _ ->
              let stale =
                Key_tbl.fold
                  (fun k (_, li) acc ->
                    if Memdep.may_alias i li then k :: acc else acc)
                  avail_loads []
              in
              List.iter (Key_tbl.remove avail_loads) stale
          | Opcode.Br_call when Memdep.call_touches_memory i ->
              Key_tbl.reset avail_loads
          | _ -> ());
          List.iter invalidate_reg i.Instr.dsts);
      (* After processing, a guarded def still invalidates. *)
      if i.Instr.pred <> None then List.iter invalidate_reg i.Instr.dsts)
    b.Block.instrs;
  !changed

let run_func (f : Func.t) =
  List.fold_left (fun acc b -> run_block b || acc) false f.Func.blocks

let run (p : Program.t) =
  List.fold_left (fun acc f -> run_func f || acc) false p.Program.funcs
