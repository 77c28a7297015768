(* Modulo-scheduling analysis: the initiation-interval (II) bounds of
   iterative modulo scheduling for single-block inner loops.

   IMPACT modulo-schedules counted loops on IA-64 (the paper notes it does
   not additionally unroll them).  In this reproduction the unroll-with-
   early-exits transformation plus list scheduling plays the software-
   pipelining role for code generation (DESIGN.md section 7); this module
   provides the real IMS *analysis* — ResMII from the Itanium 2 resource
   model and RecMII from the loop-carried dependence recurrences — used to
   report how close the generated schedule comes to the modulo-scheduling
   bound, and by tests as an oracle for the scheduler's loop throughput. *)

open Epic_ir
open Epic_mach

type loop_analysis = {
  label : string;
  n_ops : int;
  res_mii : int; (* resource-constrained minimum initiation interval *)
  rec_mii : int; (* recurrence-constrained minimum initiation interval *)
  mii : int; (* max of the two *)
  achieved_ii : int option; (* block cycles per iteration after scheduling *)
}

(* Is [b] a self-loop block suitable for modulo scheduling: branches only to
   itself or out, no calls. *)
let eligible (b : Block.t) =
  List.exists (fun (i : Instr.t) -> Instr.branch_target i = Some b.Block.label) b.Block.instrs
  && List.for_all (fun (i : Instr.t) -> not (Instr.is_call i)) b.Block.instrs

(* ResMII: for each resource class, ceil(uses / per-cycle capacity). *)
let res_mii desc (b : Block.t) =
  let m = ref 0 and i = ref 0 and f = ref 0 and br = ref 0 and total = ref 0 in
  List.iter
    (fun (ins : Instr.t) ->
      incr total;
      match Itanium.class_of ins.Instr.op with
      | Itanium.UM -> incr m
      | Itanium.UI -> incr i
      | Itanium.UA -> () (* A-type flows into M or I slack *)
      | Itanium.UF -> incr f
      | Itanium.UB -> incr br)
    b.Block.instrs;
  let ceil_div a b = (a + b - 1) / b in
  let caps = Itanium.fresh_caps desc in
  List.fold_left max 1
    [
      ceil_div !total caps.Itanium.total;
      ceil_div !m caps.Itanium.m;
      ceil_div !i (caps.Itanium.i + caps.Itanium.m) (* I ops may not use M; conservative slack *);
      ceil_div !f caps.Itanium.f;
      ceil_div !br caps.Itanium.b;
    ]

(* RecMII: the tightest loop-carried recurrence.  We model distance-1
   recurrences through registers: a register defined at position d and used
   at an earlier-or-equal position u in the next iteration forms a cycle
   whose latency sum must fit in II.  For single-def registers this reduces
   to: for each cross-iteration (use before def) pair, the chain latency
   from the def back around to itself. *)
let rec_mii desc (b : Block.t) =
  let instrs = Array.of_list b.Block.instrs in
  let n = Array.length instrs in
  (* def position of each register (last def in the block) *)
  let def_pos : int Reg.Tbl.t = Reg.Tbl.create 16 in
  Array.iteri
    (fun k (i : Instr.t) -> List.iter (fun r -> Reg.Tbl.replace def_pos r k) i.Instr.dsts)
    instrs;
  (* longest latency path computed forward within one iteration *)
  let depth = Array.make n 0 in
  let reg_depth : int Reg.Tbl.t = Reg.Tbl.create 16 in
  Array.iteri
    (fun k (i : Instr.t) ->
      let d =
        List.fold_left
          (fun acc r ->
            match Reg.Tbl.find_opt reg_depth r with Some x -> max acc x | None -> acc)
          0 (Instr.uses i)
      in
      depth.(k) <- d + Itanium.latency desc i.Instr.op;
      List.iter (fun r -> Reg.Tbl.replace reg_depth r depth.(k)) i.Instr.dsts)
    instrs;
  (* a cross-iteration edge exists when a use at position u reads a register
     whose (only) def is at position d >= u: the recurrence latency is the
     path length ending at the def *)
  let mii = ref 1 in
  Array.iteri
    (fun u (i : Instr.t) ->
      List.iter
        (fun r ->
          match Reg.Tbl.find_opt def_pos r with
          | Some d when d >= u -> mii := max !mii depth.(d)
          | _ -> ())
        (Instr.uses i))
    instrs;
  !mii

(* Cycles one iteration of the scheduled block takes: the span of issue
   cycles (valid after list scheduling). *)
let achieved_ii (b : Block.t) =
  match b.Block.instrs with
  | [] -> None
  | instrs ->
      let maxc = List.fold_left (fun m (i : Instr.t) -> max m i.Instr.cycle) (-1) instrs in
      if maxc < 0 then None else Some (maxc + 1)

let analyze_block ~desc (b : Block.t) =
  if eligible b then
    let r = res_mii desc b and c = rec_mii desc b in
    Some
      {
        label = b.Block.label;
        n_ops = Block.instr_count b;
        res_mii = r;
        rec_mii = c;
        mii = max r c;
        achieved_ii = achieved_ii b;
      }
  else None

let analyze_func ~desc (f : Func.t) = List.filter_map (analyze_block ~desc) f.Func.blocks

let analyze ~desc (p : Program.t) =
  List.concat_map (fun f -> List.map (fun a -> (f.Func.name, a)) (analyze_func ~desc f))
    p.Program.funcs
