(* Data-height reduction (Section 3.2: "control and data height reduction").
   Long serial chains of associative integer operations — typically the
   accumulator updates that region formation lines up back to back, e.g.
   after unrolling s = ((((s+a)+b)+c)+d) — are rebalanced into a tree,
   halving the dependence height and exposing the parallelism to the
   six-wide scheduler.

   Only provably-safe chains are rewritten: every link is an unguarded
   two-operand Add/Mul/And/Or/Xor of the same operator, each intermediate
   result has exactly one use (the next link) inside the block and is dead
   outside it.  64-bit wrap-around arithmetic makes reassociation exact. *)

open Epic_ir
open Epic_analysis

let associative = function
  | Opcode.Add | Opcode.Mul | Opcode.And | Opcode.Or | Opcode.Xor -> true
  | _ -> false

(* Number of uses of [r] in the block. *)
let uses_in_block (b : Block.t) (r : Reg.t) =
  List.fold_left
    (fun n (i : Instr.t) ->
      n
      + List.length (List.filter (Reg.equal r) (Instr.uses i)))
    0 b.Block.instrs

(* A chain: instructions i_1..i_n, all op [op], i_k = op (dst i_{k-1}) x_k,
   starting from i_1 = op base x_1.  Returns (chain instrs, base operand,
   terms). *)
let find_chain_from (b : Block.t) (live_out : Reg.Set.t) (instrs : Instr.t array)
    (start : int) =
  let candidate (i : Instr.t) op =
    i.Instr.pred = None && i.Instr.op = op
    && List.length i.Instr.dsts = 1
    && List.length i.Instr.srcs = 2
  in
  match instrs.(start).Instr.op with
  | op when associative op && candidate instrs.(start) op ->
      let rec grow k (chain : int list) (terms : Operand.t list) (cur_dst : Reg.t) =
        if k >= Array.length instrs then (chain, terms, cur_dst)
        else
          let i = instrs.(k) in
          let other =
            if not (candidate i op) then None
            else
              match i.Instr.srcs with
              | [ Operand.Reg a; o ] when Reg.equal a cur_dst -> Some o
              | [ o; Operand.Reg b' ] when Reg.equal b' cur_dst -> Some o
              | _ -> None
          in
          match other with
          (* an [add _, 0] link ends the chain: [rebalance] finishes every
             Add tree with one, and letting it extend a chain again makes
             [run_block] rebalance the same links forever *)
          | Some (Operand.Imm 0L) when op = Opcode.Add -> (chain, terms, cur_dst)
          | Some o
            when uses_in_block b cur_dst = 1 && not (Reg.Set.mem cur_dst live_out)
            ->
              grow (k + 1) (k :: chain) (o :: terms) (List.hd i.Instr.dsts)
          | _ -> (chain, terms, cur_dst)
      in
      let first = instrs.(start) in
      let base = List.nth first.Instr.srcs 0 in
      let t1 = List.nth first.Instr.srcs 1 in
      let chain, terms, final_dst =
        grow (start + 1) [ start ] [ t1; base ] (List.hd first.Instr.dsts)
      in
      Some (op, List.rev chain, List.rev terms, final_dst)
  | _ -> None

(* Rebalance one chain: emit a balanced tree at the position of the last
   link, writing the final destination. *)
let rebalance (f : Func.t) (b : Block.t) op (chain : int list)
    (terms : Operand.t list) (final_dst : Reg.t) (instrs : Instr.t array) =
  let last_idx = List.fold_left max 0 chain in
  let chain_set = List.sort_uniq compare chain in
  (* balanced reduction over terms *)
  let rec reduce (ops : Operand.t list) (acc_instrs : Instr.t list) =
    match ops with
    | [] -> assert false
    | [ single ] -> (single, acc_instrs)
    | _ ->
        let rec pair = function
          | a :: b' :: tl ->
              let d = Func.fresh_reg f Reg.Int in
              let i = Instr.create op ~dsts:[ d ] ~srcs:[ a; b' ] in
              let rest, emitted = pair tl in
              (Operand.Reg d :: rest, i :: emitted)
          | tail -> (tail, [])
        in
        let next, emitted = pair ops in
        reduce next (acc_instrs @ emitted)
  in
  let result, emitted = reduce terms [] in
  let finish =
    Instr.create op ~dsts:[ final_dst ] ~srcs:[ result; Operand.imm 0 ]
  in
  (* for And/Or/Mul the identity differs; use a move instead *)
  let finish =
    match result with
    | Operand.Reg r when Reg.equal r final_dst -> []
    | _ ->
        if op = Opcode.Add then [ finish ]
        else [ Instr.create Opcode.Mov ~dsts:[ final_dst ] ~srcs:[ result ] ]
  in
  (* rebuild the block: drop chain links, splice the tree at the last link *)
  let out = ref [] in
  Array.iteri
    (fun k i ->
      if k = last_idx then out := List.rev_append (emitted @ finish) !out
      else if List.mem k chain_set then ()
      else out := i :: !out)
    instrs;
  b.Block.instrs <- List.rev !out

let run_block (f : Func.t) (live : Liveness.t) (b : Block.t) =
  let live_out = Liveness.live_out live b.Block.label in
  let changed = ref false in
  let continue = ref true in
  while !continue do
    continue := false;
    let instrs = Array.of_list b.Block.instrs in
    let k = ref 0 in
    while (not !continue) && !k < Array.length instrs do
      (match find_chain_from b live_out instrs !k with
      | Some (op, chain, terms, final_dst) when List.length chain >= 4 ->
          rebalance f b op chain terms final_dst instrs;
          changed := true;
          continue := true
      | _ -> ());
      incr k
    done
  done;
  !changed

let run_func ?cache (f : Func.t) =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let live = Cache.liveness cache f in
  let changed =
    List.fold_left (fun acc b -> run_block f live b || acc) false f.Func.blocks
  in
  if changed then
    Cache.invalidate cache ~preserve:Cache.[ Callgraph; Points_to ]
      f.Func.name;
  changed

let run ?cache (p : Program.t) =
  List.fold_left (fun acc f -> run_func ?cache f || acc) false p.Program.funcs
