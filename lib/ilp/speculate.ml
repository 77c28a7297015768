(* Control speculation (Sections 2.2, 4.2, 4.3).  Two mechanisms, applied in
   the ILP-CS configuration only:

   1. Predicate promotion: a predicated load in a hyperblock has its guard
      weakened (removed, or replaced by an enclosing guard) so it no longer
      waits for its predicate definition, shortening the dependence chain.
      The load is marked speculative because it now executes on paths where
      the original program would not have.

   2. Side-exit speculation: loads below side-exit branches of a superblock
      are marked speculative so the scheduler may hoist them above the
      branches (the scheduler refuses to move non-speculative may-fault
      operations across control).

   Under the GENERAL model the marked loads complete eagerly (walking the
   page table off-path — the wild-load cost the paper measures in gcc,
   parser, perlbmk and gap).  Under the SENTINEL model they defer failures
   by writing NaT, and a chk.s with (modelled-in-place) recovery code is
   placed at the home location. *)

open Epic_ir

type model = General | Sentinel

type params = {
  model : model;
  promote : bool; (* enable predicate promotion *)
  hoist_marks : bool; (* enable side-exit speculation marking *)
  max_promotions_per_block : int;
}

let default_params =
  { model = General; promote = true; hoist_marks = true; max_promotions_per_block = 16 }

let spec_kind = function General -> Opcode.Spec_general | Sentinel -> Opcode.Spec_sentinel

(* Instructions strictly after [after] that use or define [r]. *)
let uses_or_defs_after instrs (after : Instr.t) (r : Reg.t) =
  let rec skip = function
    | [] -> []
    | i :: tl when i == after -> tl
    | _ :: tl -> skip tl
  in
  List.filter
    (fun (i : Instr.t) ->
      List.exists (Reg.equal r) (Instr.uses i)
      || List.exists (Reg.equal r) (Instr.defs i))
    (skip instrs)

let defs_of r instrs =
  List.filter (fun (i : Instr.t) -> List.exists (Reg.equal r) (Instr.defs i)) instrs

(* Is promotion of load [ld] (guard [p]) in block [b] of [f] safe?  A wrong
   or NaT value produced by the now-unconditional load must never be
   consumed.  That holds when:
   - the destination is used only inside [b] (it is a block-local
     temporary; region formation creates exactly these);
   - no use of the destination is upward-exposed in [b] (nothing reads a
     value carried around a back edge from a previous iteration);
   - every use between this load and the destination's next redefinition is
     guarded by [p] (or is this load's own chk).
   Repeated definitions (unrolled replicas of the load) are fine: each
   replica's value dies before the next redefinition. *)
let promotion_safe (f : Func.t) (b : Block.t) (ld : Instr.t) (p : Reg.t) =
  match ld.Instr.dsts with
  | [ d ] ->
      let used_outside =
        List.exists
          (fun (b' : Block.t) ->
            b' != b
            && List.exists
                 (fun (i : Instr.t) -> List.exists (Reg.equal d) (Instr.uses i))
                 b'.Block.instrs)
          f.Func.blocks
      in
      let upward_exposed =
        (* a use of d is upward-exposed unless an earlier definition is
           certain to have executed whenever the use does: an unguarded def,
           or a def under the same guard as the use *)
        let rec scan def_guards = function
          | [] -> false
          | (i : Instr.t) :: tl ->
              let covered =
                List.exists
                  (function
                    | None -> true
                    | Some g -> (
                        match i.Instr.pred with
                        | Some q -> Reg.equal g q
                        | None -> false))
                  def_guards
              in
              if List.exists (Reg.equal d) (Instr.uses i) && not covered then true
              else if List.exists (Reg.equal d) (Instr.defs i) then
                scan (i.Instr.pred :: def_guards) tl
              else scan def_guards tl
        in
        scan [] b.Block.instrs
      in
      let until_next_def =
        let rec take = function
          | [] -> []
          | (u : Instr.t) :: tl ->
              if List.exists (Reg.equal d) (Instr.defs u) then
                (* the redefinition itself may read d (e.g. d = d + x) *)
                if List.exists (Reg.equal d) (Instr.uses u) then [ u ] else []
              else if List.exists (Reg.equal d) (Instr.uses u) then u :: take tl
              else take tl
        in
        take (uses_or_defs_after b.Block.instrs ld d)
      in
      (not used_outside) && (not upward_exposed)
      && List.for_all
           (fun (u : Instr.t) ->
             match u.Instr.pred with
             | Some q -> Reg.equal q p
             | None -> ( match u.Instr.op with Opcode.Chk _ -> true | _ -> false))
           until_next_def
  | _ -> false

(* Insert a sentinel check for [ld] right after it, guarded by [guard]. *)
let insert_check (b : Block.t) (ld : Instr.t) (guard : Reg.t option) =
  match (ld.Instr.op, ld.Instr.dsts, ld.Instr.srcs) with
  | Opcode.Ld (sz, _), [ d ], [ addr ] ->
      let chk =
        Instr.create ?pred:guard (Opcode.Chk sz) ~srcs:[ Operand.Reg d; addr ]
      in
      chk.Instr.attrs.Instr.check_reg <- Some d;
      let rec ins = function
        | [] -> [ chk ]
        | i :: tl when i == ld -> i :: chk :: tl
        | i :: tl -> i :: ins tl
      in
      b.Block.instrs <- ins b.Block.instrs
  | _ -> ()

(* Returns the number of loads promoted and marked in [b]. *)
let run_block (ps : params) (f : Func.t) (b : Block.t) =
  let promoted = ref 0 and marked = ref 0 in
  (* 1. predicate promotion in predicated regions (hyperblocks, and
     superblocks that inherited predicated code) *)
  if ps.promote && (b.Block.kind = Block.Hyper || b.Block.kind = Block.Super) then
    List.iter
      (fun (i : Instr.t) ->
        match (i.Instr.op, i.Instr.pred) with
        | Opcode.Ld (sz, Opcode.Nonspec), Some p
          when !promoted < ps.max_promotions_per_block
               && promotion_safe f b i p ->
            i.Instr.op <- Opcode.Ld (sz, spec_kind ps.model);
            i.Instr.pred <- None;
            i.Instr.attrs.Instr.speculated <- true;
            i.Instr.attrs.Instr.promoted <- true;
            incr promoted;
            if ps.model = Sentinel then insert_check b i (Some p)
        | _ -> ())
      b.Block.instrs;
  (* 2. side-exit speculation marking in blocks with internal branches *)
  if ps.hoist_marks then begin
    let past_branch = ref false in
    List.iter
      (fun (i : Instr.t) ->
        (match (i.Instr.op, i.Instr.pred) with
        | Opcode.Ld (sz, Opcode.Nonspec), None when !past_branch -> (
            match i.Instr.dsts with
            | [ d ] when List.length (defs_of d b.Block.instrs) = 1 ->
                i.Instr.op <- Opcode.Ld (sz, spec_kind ps.model);
                i.Instr.attrs.Instr.speculated <- true;
                incr marked;
                if ps.model = Sentinel then insert_check b i None
            | _ -> ())
        | _ -> ());
        if i.Instr.op = Opcode.Br then past_branch := true)
      b.Block.instrs
  end;
  (!promoted, !marked)

(* Returns (loads promoted, loads marked); every mutation, a sentinel check
   included, comes with one of them. *)
let run_func ?(params = default_params) (f : Func.t) =
  List.fold_left
    (fun (p, m) b ->
      let p', m' = run_block params f b in
      (p + p', m + m'))
    (0, 0) f.Func.blocks

let run ?(params = default_params) (p : Program.t) =
  List.fold_left
    (fun n f ->
      let promoted, marked = run_func ~params f in
      n + promoted + marked)
    0 p.Program.funcs
