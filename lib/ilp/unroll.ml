(* Superblock loop unrolling: a single-block self-loop (the common shape of
   an inner loop after region formation) with a high profiled trip count is
   unrolled by replicating its body.  Each replica keeps its own loop-exit
   test as a side exit (the "unrolling with early exits" scheme), so no exact
   trip count is needed; the final replica's latch branches back to the top.

   The latch condition must be reversible: the block must end with
   "(pt) br self" where a compare in the block defines both pt and its
   complement pf, so replicas can exit with "(pf) br exit_target". *)

open Epic_ir
open Epic_opt

type params = {
  factor : int;
  min_avg_trips : float;
  max_body_instrs : int;
}

let default_params = { factor = 4; min_avg_trips = 6.0; max_body_instrs = 32 }

(* A self-loop: a block whose terminator region is "(pt) br self" either as
   the final instruction (fall-through exit) or followed by one trailing
   unconditional branch to the exit.  Exactly one branch targets the block
   itself. *)
let self_loop_shape (f : Func.t) (b : Block.t) =
  let self_branches =
    List.filter
      (fun (i : Instr.t) -> Instr.branch_target i = Some b.Block.label)
      b.Block.instrs
  in
  if List.length self_branches <> 1 then None
  else
    match List.rev b.Block.instrs with
    | (last : Instr.t) :: _
      when last.Instr.op = Opcode.Br && last.Instr.pred <> None
           && Instr.branch_target last = Some b.Block.label -> (
        match Func.fallthrough f b with
        | Some e -> Some (last, e.Block.label)
        | None -> None)
    | (brf : Instr.t) :: (latch : Instr.t) :: _
      when brf.Instr.op = Opcode.Br && brf.Instr.pred = None
           && latch.Instr.op = Opcode.Br && latch.Instr.pred <> None
           && Instr.branch_target latch = Some b.Block.label -> (
        match Instr.branch_target brf with
        | Some e -> Some (latch, e)
        | None -> None)
    | (last : Instr.t) :: _
      when last.Instr.op = Opcode.Br && last.Instr.pred = None
           && Instr.branch_target last = Some b.Block.label ->
        (* rotated loop: unconditional backward latch, predicated early
           exit(s) inside the body *)
        Some (last, "")
    | _ -> None

let avg_trips (latch : Instr.t) (b : Block.t) =
  if latch.Instr.pred = None then begin
    (* rotated loop: entries = flow leaving through the early exits' origin,
       i.e. block weight minus latch executions; the latch runs on every
       non-exiting iteration, so use the latch's own execution count *)
    let latch_w = latch.Instr.attrs.Instr.weight in
    let entries = b.Block.weight -. latch_w in
    if entries > 0.5 then b.Block.weight /. entries else 0.
  end
  else
    let p = latch.Instr.attrs.Instr.taken_prob in
    let entries = b.Block.weight *. (1. -. p) in
    if entries > 0.5 then b.Block.weight /. entries else 0.

(* Rotated form: replicate the body (which carries its own predicated early
   exits); only the final replica keeps the backward branch. *)
let unroll_rotated (ps : params) (b : Block.t) =
  let body =
    List.filter
      (fun (i : Instr.t) -> Instr.branch_target i <> Some b.Block.label)
      b.Block.instrs
  in
  (* the body must contain at least one exit branch, or unrolling would make
     an unbreakable longer loop for nothing *)
  if not (List.exists Instr.is_branch body) then false
  else begin
    let rec build k acc =
      if k = ps.factor then
        acc
        @ [ Instr.create Opcode.Br ~srcs:[ Operand.Label b.Block.label ] ]
      else build (k + 1) (acc @ List.map Instr.copy body)
    in
    b.Block.instrs <- build 1 body;
    b.Block.kind <- Block.Super;
    true
  end

let unroll_block (f : Func.t) (ps : params) (b : Block.t) (latch : Instr.t)
    (exit_label : string) =
  if latch.Instr.pred = None then unroll_rotated ps b
  else
  let pt = match latch.Instr.pred with Some p -> p | None -> assert false in
  match Hyperblock.complement_pred b pt with
  | None -> false
  | Some (_, pf) ->
      ignore (Jumpopt.materialize_fallthroughs f);
      let base_instrs = b.Block.instrs in
      let strip_tail instrs =
        (* remove the trailing "br exit" and "(pt) br self" *)
        List.filter
          (fun (i : Instr.t) ->
            not
              (Instr.branch_target i = Some b.Block.label
              || (i.Instr.op = Opcode.Br && i.Instr.pred = None
                 && Instr.branch_target i = Some exit_label)))
          instrs
      in
      let body = strip_tail base_instrs in
      let replica () = List.map Instr.copy body in
      let early_exit () =
        Instr.create ~pred:pf Opcode.Br ~srcs:[ Operand.Label exit_label ]
      in
      let rec build k acc =
        if k = ps.factor - 1 then
          acc @ replica ()
          @ [
              Instr.create ~pred:pt Opcode.Br ~srcs:[ Operand.Label b.Block.label ];
              Instr.create Opcode.Br ~srcs:[ Operand.Label exit_label ];
            ]
        else build (k + 1) (acc @ replica () @ [ early_exit () ])
      in
      b.Block.instrs <- build 1 (body @ [ early_exit () ]);
      b.Block.kind <- Block.Super;
      true

let run_func ?(params = default_params) (f : Func.t) =
  let count = ref 0 in
  List.iter
    (fun (b : Block.t) ->
      match self_loop_shape f b with
      | Some (latch, exit_label)
        when Block.instr_count b <= params.max_body_instrs
             && avg_trips latch b >= params.min_avg_trips
             && not b.Block.cold ->
          if unroll_block f params b latch exit_label then incr count
      | _ -> ())
    f.Func.blocks;
  !count

let run ?(params = default_params) (p : Program.t) =
  List.fold_left (fun n f -> n + run_func ~params f) 0 p.Program.funcs
