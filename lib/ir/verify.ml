(* Structural well-formedness checks, run between compiler phases in tests
   and (cheaply) by the driver.  A violation raises [Ill_formed]. *)

exception Ill_formed of string

let fail fmt = Fmt.kstr (fun s -> raise (Ill_formed s)) fmt

let check_func ?(program : Program.t option) (f : Func.t) =
  if f.Func.blocks = [] then fail "%s: function has no blocks" f.Func.name;
  (* Unique labels. *)
  let labels = Hashtbl.create 16 in
  List.iter
    (fun b ->
      if Hashtbl.mem labels b.Block.label then
        fail "%s: duplicate block label %s" f.Func.name b.Block.label;
      Hashtbl.add labels b.Block.label ())
    f.Func.blocks;
  (* Branch targets resolve; last block does not fall off the end. *)
  List.iter
    (fun b ->
      List.iter
        (fun (i : Instr.t) ->
          (match Instr.branch_target i with
          | Some l when not (Hashtbl.mem labels l) ->
              fail "%s/%s: branch to unknown label %s" f.Func.name
                b.Block.label l
          | _ -> ());
          (match i.Instr.attrs.recovery with
          | Some l when not (Hashtbl.mem labels l) ->
              fail "%s/%s: recovery label %s unknown" f.Func.name
                b.Block.label l
          | _ -> ());
          (* Operand arity sanity for key opcodes. *)
          (match i.Instr.op with
          | Opcode.Cmp _ | Opcode.Fcmp _ ->
              if
                List.length i.Instr.dsts <> 2
                || List.exists (fun (r : Reg.t) -> r.Reg.cls <> Reg.Prd) i.Instr.dsts
              then
                fail "%s: cmp must define two predicates: %a" f.Func.name
                  Instr.pp i
          | Opcode.St _ ->
              if List.length i.Instr.srcs <> 2 then
                fail "%s: store needs [addr; value]: %a" f.Func.name Instr.pp i
          | Opcode.Ld _ ->
              if List.length i.Instr.srcs <> 1 || List.length i.Instr.dsts <> 1
              then fail "%s: load needs one addr, one dst: %a" f.Func.name Instr.pp i
          | Opcode.Chk _ | Opcode.Chka _ ->
              if List.length i.Instr.srcs <> 2 then
                fail "%s: chk needs [value; addr]: %a" f.Func.name Instr.pp i
          | _ -> ());
          (* Predicate guards must be predicate registers. *)
          match i.Instr.pred with
          | Some p when p.Reg.cls <> Reg.Prd ->
              fail "%s: guard is not a predicate: %a" f.Func.name Instr.pp i
          | _ -> ())
        b.Block.instrs)
    f.Func.blocks;
  (match List.rev f.Func.blocks with
  | last :: _ ->
      if not (Block.ends_in_unconditional last) then
        fail "%s: control can fall off the end of block %s" f.Func.name
          last.Block.label
  | [] -> ());
  (* Direct calls resolve when the whole program is available. *)
  match program with
  | None -> ()
  | Some p ->
      Func.iter_instrs f (fun i ->
          match Instr.callee i with
          | Some callee
            when (not (Intrinsics.is_intrinsic callee))
                 && Program.find_func p callee = None ->
              fail "%s: call to undefined function %s" f.Func.name callee
          | _ -> ())

let check_program (p : Program.t) =
  (match Program.find_func p p.Program.entry with
  | None -> fail "no entry function %s" p.Program.entry
  | Some _ -> ());
  List.iter (check_func ~program:p) p.Program.funcs
