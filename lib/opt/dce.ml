(* Global dead-code elimination driven by liveness: an instruction with no
   side effects whose definitions are all dead after it is removed.  Iterates
   to a fixed point: a removal inside a block is seen by the rest of that
   block's walk at once, one across blocks by the next round. *)

open Epic_ir
open Epic_analysis

let has_side_effect (i : Instr.t) =
  match i.Instr.op with
  | Opcode.St _ | Opcode.Br | Opcode.Br_call | Opcode.Br_ret | Opcode.Chk _
  | Opcode.Chka _
  | Opcode.Alloc ->
      true
  | Opcode.Div | Opcode.Rem ->
      (* may fault; keep unless proven safe — conservative *)
      true
  | Opcode.Ld (_, Opcode.Nonspec) -> true (* may fault *)
  | Opcode.Ld (_, (Opcode.Spec_general | Opcode.Spec_sentinel)) ->
      false (* speculative loads never fault and are removable when dead *)
  | _ -> false

(* DCE never removes branches, stores or calls (all side-effecting), so the
   CFG, the loop nest and the memory-dependence summary survive each round —
   only liveness must be refetched after a removal. *)
let dce_preserves =
  Cache.[ Dominance; Loops; Memdep; Callgraph; Points_to ]

(* Does [i] stay, given the registers live just after it? *)
let needed (i : Instr.t) after =
  if has_side_effect i then true
  else if i.Instr.dsts = [] then
    (* no side effect and defines nothing: dead (e.g. nop) *)
    i.Instr.op = Opcode.Nop
  else
    List.exists
      (fun (d : Reg.t) -> Reg.Set.mem d after || Reg.equal d Reg.sp)
      i.Instr.dsts

(* One backward walk over [b] from its cached live-out.  A removed
   instruction neither kills nor uses anything, so a whole dead chain
   inside the block goes in one walk.  True if anything was removed. *)
let sweep_block live (b : Block.t) =
  let rec go kept after = function
    | [] -> kept
    | (i : Instr.t) :: rest ->
        if needed i after then go (i :: kept) (Liveness.transfer live i after) rest
        else go kept after rest
  in
  let kept = go [] (Liveness.live_out live b.Block.label) (List.rev b.Block.instrs) in
  if List.compare_lengths kept b.Block.instrs = 0 then false
  else begin
    b.Block.instrs <- kept;
    true
  end

(* A removal can still leave stale liveness behind — a loop-carried
   register whose only use went keeps its definition before the loop
   alive — so every changed round is confirmed by a fresh liveness. *)
let run_func ?cache (f : Func.t) =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let rec pass changed =
    let live = Cache.liveness cache f in
    let removed =
      List.fold_left (fun acc b -> sweep_block live b || acc) false f.Func.blocks
    in
    if removed then begin
      Cache.invalidate cache ~preserve:dce_preserves f.Func.name;
      pass true
    end
    else changed
  in
  pass false

let run ?cache (p : Program.t) =
  List.fold_left (fun acc f -> run_func ?cache f || acc) false p.Program.funcs
