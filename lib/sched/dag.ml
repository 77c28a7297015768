(* Dependence DAG construction over one block (basic block, superblock or
   hyperblock).  Edges carry latencies; a latency-0 edge means the pair may
   share an issue group provided program order is preserved (the in-order
   core executes a group's operations in program order, with IA-64 group
   semantics enforced by the latencies chosen here).

   Control rules implement the speculation model: a branch orders all later
   may-fault operations (so non-speculative loads cannot be hoisted above a
   side exit) and all later definitions of registers that are live into the
   branch's target (so hoisting cannot corrupt state observed at the exit).
   Speculative loads are exempt from the may-fault rule — that is exactly
   the scheduling freedom control speculation buys (Section 3.2). *)

open Epic_ir
open Epic_analysis
open Epic_mach

type t = {
  instrs : Instr.t array;
  succs : (int * int) list array; (* (target, latency) *)
  preds : (int * int) list array;
  mutable n_edges : int;
}

let add_edge g i j lat =
  if i <> j then begin
    (* keep the max latency for duplicate edges *)
    match List.assoc_opt j g.succs.(i) with
    | Some l when l >= lat -> ()
    | _ ->
        g.succs.(i) <- (j, lat) :: List.remove_assoc j g.succs.(i);
        g.preds.(j) <- (i, lat) :: List.remove_assoc i g.preds.(j);
        g.n_edges <- g.n_edges + 1
  end

(* Registers defined, for dependence purposes: a chk may rewrite the checked
   register during recovery. *)
let dep_defs (i : Instr.t) =
  match (i.Instr.op, i.Instr.attrs.Instr.check_reg) with
  | (Opcode.Chk _ | Opcode.Chka _), Some r -> r :: i.Instr.dsts
  | _ -> i.Instr.dsts

let build ~desc (live : Liveness.t) (b : Block.t) =
  let instrs = Array.of_list b.Block.instrs in
  let n = Array.length instrs in
  let g = { instrs; succs = Array.make n []; preds = Array.make n []; n_edges = 0 } in
  let prels = Pred_relations.of_block b in
  (* last (possibly predicated) defs of each register, and uses since *)
  let defs_tbl : int list Reg.Tbl.t = Reg.Tbl.create 32 in
  let uses_tbl : int list Reg.Tbl.t = Reg.Tbl.create 32 in
  let mem_ops = ref [] in
  let branches = ref [] in
  let live_at_branch = Array.make n Reg.Set.empty in
  (* compute live-at-exit for each branch: live-in of its target *)
  Array.iteri
    (fun idx (i : Instr.t) ->
      if Instr.is_branch i then
        let s =
          match Instr.branch_target i with
          | Some t -> Liveness.live_in live t
          | None -> Reg.Set.empty
        in
        live_at_branch.(idx) <- s)
    instrs;
  Array.iteri
    (fun j (ij : Instr.t) ->
      let tracked r = not (Reg.equal r Reg.r0 || Reg.equal r Reg.p0) in
      (* RAW *)
      List.iter
        (fun r ->
          if tracked r then
            match Reg.Tbl.find_opt defs_tbl r with
            | Some ds ->
                List.iter
                  (fun d -> add_edge g d j (Itanium.dep_latency desc instrs.(d) ij r))
                  ds
            | None -> ())
        (Instr.uses ij);
      (* WAW / WAR (latency 1 / 0), relaxed for disjoint predicates *)
      List.iter
        (fun r ->
          if tracked r then begin
            (match Reg.Tbl.find_opt defs_tbl r with
            | Some ds ->
                List.iter
                  (fun d ->
                    if not (Pred_relations.instrs_disjoint prels instrs.(d) ij)
                    then add_edge g d j 1)
                  ds
            | None -> ());
            match Reg.Tbl.find_opt uses_tbl r with
            | Some us ->
                List.iter
                  (fun u ->
                    if not (Pred_relations.instrs_disjoint prels instrs.(u) ij)
                    then add_edge g u j 0)
                  us
            | None -> ()
          end)
        (dep_defs ij);
      (* memory and I/O ordering *)
      if Instr.is_mem ij || Instr.is_call ij || (match ij.Instr.op with Opcode.Chk _ | Opcode.Chka _ -> true | _ -> false)
      then begin
        List.iter
          (fun k ->
            let ik = instrs.(k) in
            let chk_mem (x : Instr.t) =
              match x.Instr.op with Opcode.Chk _ | Opcode.Chka _ -> true | _ -> false
            in
            let ordered =
              if chk_mem ik || chk_mem ij then
                (* a chk's recovery performs a (re)load: order it like a load
                   against stores and calls *)
                Instr.is_store ik || Instr.is_store ij || Instr.is_call ik
                || Instr.is_call ij
              else Memdep.must_order ik ij
            in
            if ordered then
              add_edge g k j (if Instr.is_store ik && Instr.is_load ij then 1 else 0))
          (List.rev !mem_ops);
        mem_ops := j :: !mem_ops
      end;
      (* control *)
      List.iter
        (fun bidx ->
          (* branch order *)
          if Instr.is_branch ij then add_edge g bidx j 0;
          (* may-fault ops stay below the branch *)
          if Instr.may_fault ij && not ij.Instr.attrs.Instr.speculated then
            add_edge g bidx j 0;
          (* defs of registers observed at the exit stay below *)
          List.iter
            (fun r ->
              if Reg.Set.mem r live_at_branch.(bidx) then add_edge g bidx j 0)
            (dep_defs ij))
        !branches;
      (* an unconditional transfer terminates the block: nothing may be
         scheduled after it (it would never execute, and the block would no
         longer end in its terminator) *)
      if
        (match ij.Instr.op with
        | Opcode.Br | Opcode.Br_ret -> ij.Instr.pred = None
        | _ -> false)
      then
        for k = 0 to j - 1 do
          add_edge g k j 0
        done;
      if Instr.is_branch ij then begin
        (* defs of live-at-exit registers above the branch stay above *)
        Reg.Set.iter
          (fun r ->
            match Reg.Tbl.find_opt defs_tbl r with
            | Some ds -> List.iter (fun d -> add_edge g d j 0) ds
            | None -> ())
          live_at_branch.(j);
        (* stores, calls and checks above the branch must still execute when
           the branch is taken: they may not sink below it *)
        List.iter
          (fun k ->
            let ik = instrs.(k) in
            if
              Instr.is_store ik || Instr.is_call ik
              || (match ik.Instr.op with Opcode.Chk _ | Opcode.Chka _ -> true | _ -> false)
            then add_edge g k j 0)
          !mem_ops;
        branches := j :: !branches
      end;
      (* update def/use tables *)
      List.iter
        (fun r ->
          let cur = match Reg.Tbl.find_opt uses_tbl r with Some l -> l | None -> [] in
          Reg.Tbl.replace uses_tbl r (j :: cur))
        (Instr.uses ij);
      List.iter
        (fun r ->
          let killing =
            ij.Instr.pred = None
            && (match ij.Instr.op with Opcode.Chk _ | Opcode.Chka _ -> false | _ -> true)
          in
          if killing then begin
            Reg.Tbl.replace defs_tbl r [ j ];
            (* uses before a killing def no longer constrain later defs *)
            Reg.Tbl.remove uses_tbl r
          end
          else
            let cur = match Reg.Tbl.find_opt defs_tbl r with Some l -> l | None -> [] in
            Reg.Tbl.replace defs_tbl r (j :: cur))
        (dep_defs ij))
    instrs;
  g

(* Critical-path priority: longest latency-weighted path from each node to
   any sink. *)
let priorities (g : t) =
  let n = Array.length g.instrs in
  let prio = Array.make n 0 in
  for j = n - 1 downto 0 do
    let h =
      List.fold_left (fun acc (s, lat) -> max acc (prio.(s) + max lat 1)) 0 g.succs.(j)
    in
    prio.(j) <- h
  done;
  prio
