(* Hyperblock formation [Mahlke et al., MICRO-25]: if-conversion of
   single-entry, acyclic hammock regions (triangles and diamonds) into
   predicated straight-line code.  Applied iteratively, so nested control
   flow collapses bottom-up; nested guards are handled with unconditional-
   type compares, which clear their targets when their own qualifying
   predicate is false.

   Inclusion heuristics follow the paper's discussion: a path is included
   when it is executed often enough relative to the main path, is small
   enough for the issue width, contains no calls or loops, and has a
   dependence height compatible with the other path. *)

open Epic_ir
open Epic_opt

type params = {
  max_path_instrs : int; (* resource heuristic: arm size bound *)
  min_path_ratio : float; (* include a path whose weight ratio is above this *)
  max_height_diff : int; (* dependence-height compatibility bound *)
  max_block_predicates : int;
      (* stop growing a hyperblock once it would hold this many distinct
         predicate registers — the register-file pressure guard the paper's
         Section 4.4 motivates *)
}

let default_params =
  {
    max_path_instrs = 24;
    min_path_ratio = 0.015;
    max_height_diff = 16;
    max_block_predicates = 36;
  }

(* Distinct predicate registers appearing in a block. *)
let block_predicates (b : Block.t) =
  let s = ref Reg.Set.empty in
  List.iter
    (fun (i : Instr.t) ->
      List.iter
        (fun (r : Reg.t) -> if r.Reg.cls = Reg.Prd then s := Reg.Set.add r !s)
        (Instr.uses i @ Instr.defs i))
    b.Block.instrs;
  Reg.Set.cardinal !s

(* Can every instruction of this block be predicated? *)
let arm_convertible (ps : params) (b : Block.t) =
  let body =
    match List.rev b.Block.instrs with
    | (last : Instr.t) :: before
      when last.Instr.op = Opcode.Br && last.Instr.pred = None ->
        before
    | l -> l
  in
  Block.instr_count b <= ps.max_path_instrs
  && b.Block.kind <> Block.Recovery
  && List.for_all
       (fun (i : Instr.t) ->
         match i.Instr.op with
         | Opcode.Br | Opcode.Br_call | Opcode.Br_ret -> false
         | _ -> true)
       body

(* Guard every instruction of [b] with [q]; compares become unconditional
   type so squashed guards clear their predicate targets. *)
let predicate_block (b : Block.t) (q : Reg.t) =
  List.iter
    (fun (i : Instr.t) ->
      (match i.Instr.op with
      | Opcode.Cmp (c, _) -> i.Instr.op <- Opcode.Cmp (c, Opcode.Unc)
      | Opcode.Fcmp (c, _) -> i.Instr.op <- Opcode.Fcmp (c, Opcode.Unc)
      | _ -> ());
      if i.Instr.pred = None then i.Instr.pred <- Some q)
    b.Block.instrs

(* Find the complement predicate of branch guard [pt]: a compare in [a]
   defining both [pt] and its complement, with neither redefined since. *)
let complement_pred (a : Block.t) (pt : Reg.t) =
  let rec go seen_defs = function
    | [] -> None
    | (i : Instr.t) :: rest -> (
        let ok_complement f =
          if List.exists (Reg.equal f) seen_defs then None else Some (i, f)
        in
        match (i.Instr.op, i.Instr.dsts) with
        | (Opcode.Cmp _ | Opcode.Fcmp _), [ t; f ] when Reg.equal t pt ->
            ok_complement f
        | (Opcode.Cmp _ | Opcode.Fcmp _), [ t; f ] when Reg.equal f pt ->
            ok_complement t
        | _, dsts when List.exists (Reg.equal pt) dsts -> None
        | _, dsts -> go (dsts @ seen_defs) rest)
  in
  go [] (List.rev a.Block.instrs)

(* The terminator shape of a candidate region root: a guarded branch to
   [taken] followed by a definite transfer to [fall] — either an
   unconditional branch or a layout fall-through.  Returns the guarded
   branch, the two labels, and the preceding instructions (reversed). *)
let two_way_exit (f : Func.t) (a : Block.t) =
  match List.rev a.Block.instrs with
  | (brf : Instr.t) :: (brt : Instr.t) :: rest
    when brf.Instr.op = Opcode.Br && brf.Instr.pred = None
         && brt.Instr.op = Opcode.Br && brt.Instr.pred <> None -> (
      match (Instr.branch_target brt, Instr.branch_target brf) with
      | Some t, Some fl when t <> fl -> Some (brt, t, fl, rest)
      | _ -> None)
  | (brt : Instr.t) :: rest when brt.Instr.op = Opcode.Br && brt.Instr.pred <> None -> (
      match (Instr.branch_target brt, Func.fallthrough f a) with
      | Some t, Some fall when t <> fall.Block.label ->
          Some (brt, t, fall.Block.label, rest)
      | _ -> None)
  | _ -> None

(* The unique successor label of arm [b]: it must end in a single
   unconditional branch (or fall through) with no other control flow. *)
let straight_successor (f : Func.t) (b : Block.t) =
  let branches = List.filter Instr.is_branch b.Block.instrs in
  match branches with
  | [] -> Option.map (fun (n : Block.t) -> n.Block.label) (Func.fallthrough f b)
  | [ i ] when i.Instr.op = Opcode.Br && i.Instr.pred = None -> (
      match (List.rev b.Block.instrs, Instr.branch_target i) with
      | last :: _, Some t when last == i -> Some t
      | _ -> None)
  | _ -> None

(* Region shapes.  In each case the join is a label outside the arms. *)
type shape =
  | Triangle_taken of Block.t * string (* taken arm + join (= fall label) *)
  | Triangle_fall of Block.t * string (* fall arm + join (= taken label) *)
  | Diamond of Block.t * Block.t * string

let single_pred (preds : (string, string list) Hashtbl.t) label =
  match Hashtbl.find_opt preds label with Some [ _ ] -> true | _ -> false

let classify (f : Func.t) (ps : params) preds (a : Block.t) =
  match two_way_exit f a with
  | None -> None
  | Some (_, t_label, f_label, _) -> (
      let arm label =
        match Func.find_block f label with
        | Some b
          when single_pred preds label && arm_convertible ps b
               && b != Func.entry f && b != a ->
            Some b
        | _ -> None
      in
      match (arm t_label, arm f_label) with
      | Some tb, Some fb -> (
          match (straight_successor f tb, straight_successor f fb) with
          | Some j1, Some j2
            when j1 = j2 && j1 <> t_label && j1 <> f_label
                 && j1 <> a.Block.label ->
              Some (Diamond (tb, fb, j1))
          | Some j1, _ when j1 = f_label -> Some (Triangle_taken (tb, f_label))
          | _, Some j2 when j2 = t_label -> Some (Triangle_fall (fb, t_label))
          | _ -> None)
      | Some tb, None -> (
          match straight_successor f tb with
          | Some j1 when j1 = f_label -> Some (Triangle_taken (tb, f_label))
          | _ -> None)
      | None, Some fb -> (
          match straight_successor f fb with
          | Some j2 when j2 = t_label -> Some (Triangle_fall (fb, t_label))
          | _ -> None)
      | None, None -> None)

(* Drop the arm's trailing unconditional branch (if any). *)
let strip_terminator (b : Block.t) =
  match List.rev b.Block.instrs with
  | last :: before when last.Instr.op = Opcode.Br && last.Instr.pred = None ->
      b.Block.instrs <- List.rev before
  | _ -> ()

let profitable (ps : params) (br : Instr.t) arms =
  let p = br.Instr.attrs.Instr.taken_prob in
  let ratio = min p (1. -. p) in
  ratio >= ps.min_path_ratio
  &&
  match arms with
  | [ x ] -> Region_util.dependence_height x <= ps.max_height_diff + 4
  | [ x; y ] ->
      abs (Region_util.dependence_height x - Region_util.dependence_height y)
      <= ps.max_height_diff
  | _ -> true

(* Attempt to if-convert one region rooted at [a]; true on success. *)
let convert_region (f : Func.t) (ps : params) preds (a : Block.t) =
  match (classify f ps preds a, two_way_exit f a) with
  | Some shape, Some (brt, _, _, before_rev) -> (
      let pt = match brt.Instr.pred with Some p -> p | None -> assert false in
      (* [before_rev] excludes the terminating branches but still contains
         the compare; find the complement among the remaining instrs *)
      let probe = Block.create "probe" in
      probe.Block.instrs <- List.rev before_rev;
      match complement_pred probe pt with
      | None -> false
      | Some (cmp, pf) ->
          let arms =
            match shape with
            | Triangle_taken (x, _) | Triangle_fall (x, _) -> [ x ]
            | Diamond (x, y, _) -> [ x; y ]
          in
          let combined_preds =
            List.fold_left
              (fun n arm -> n + block_predicates arm)
              (block_predicates a) arms
          in
          if (not (profitable ps brt arms)) || combined_preds > ps.max_block_predicates
          then false
          else begin
            (match cmp.Instr.op with
            | Opcode.Cmp (c, Opcode.Norm) -> cmp.Instr.op <- Opcode.Cmp (c, Opcode.Unc)
            | Opcode.Fcmp (c, Opcode.Norm) -> cmp.Instr.op <- Opcode.Fcmp (c, Opcode.Unc)
            | _ -> ());
            let before = List.rev before_rev in
            let arm_instrs guard (arm : Block.t) =
              strip_terminator arm;
              predicate_block arm guard;
              arm.Block.instrs
            in
            let finish arms_instrs join removed =
              a.Block.instrs <-
                before @ arms_instrs
                @ [ Instr.create Opcode.Br ~srcs:[ Operand.Label join ] ];
              f.Func.blocks <-
                List.filter (fun x -> not (List.memq x removed)) f.Func.blocks;
              a.Block.kind <- Block.Hyper
            in
            (match shape with
            | Triangle_taken (tb, join) -> finish (arm_instrs pt tb) join [ tb ]
            | Triangle_fall (fb, join) -> finish (arm_instrs pf fb) join [ fb ]
            | Diamond (tb, fb, join) ->
                finish (arm_instrs pt tb @ arm_instrs pf fb) join [ tb; fb ]);
            true
          end)
  | _ -> false

(* Iterate conversion to a fixed point, one region per round.  Returns
   (mutated, regions converted); the function was mutated when a region
   converted, a fall-through materialized, or the closing jump optimization
   fired. *)
let run_func ?(params = default_params) (f : Func.t) =
  let materialized = Jumpopt.materialize_fallthroughs f in
  let converted = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let preds = Func.predecessors f in
    List.iter
      (fun (a : Block.t) ->
        if (not !changed) && convert_region f params preds a then changed := true)
      f.Func.blocks;
    if !changed then incr converted
  done;
  let cleaned = Jumpopt.run_func f in
  (materialized || !converted > 0 || cleaned, !converted)

let run ?(params = default_params) (p : Program.t) =
  List.fold_left (fun n f -> n + snd (run_func ~params f)) 0 p.Program.funcs
