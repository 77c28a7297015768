(* Block-level live-variable analysis, used by dead-code elimination, the
   register allocator's interference construction, and the scheduler's
   check that hoisting a definition above a side exit is safe. *)

open Epic_ir

type t = {
  live_in : (string, Reg.Set.t) Hashtbl.t;
  live_out : (string, Reg.Set.t) Hashtbl.t;
}

let never_tracked (r : Reg.t) = Reg.equal r Reg.r0 || Reg.equal r Reg.p0

(* Does this instruction write its destinations regardless of its guard?
   Unpredicated instructions do; so do unconditional-type compares, which
   clear their predicate targets even when the qualifying predicate is
   false — recognizing this is what keeps hyperblock predicates from
   looking live around loop back edges. *)
let killing_def (i : Instr.t) =
  i.Instr.pred = None
  ||
  match i.Instr.op with
  | Opcode.Cmp (_, Opcode.Unc) | Opcode.Fcmp (_, Opcode.Unc) -> true
  | _ -> false

(* Per-block upward-exposed uses and definitions.  A predicated definition is
   not a "kill": when the guard is false the old value survives, so guarded
   defs count as uses of the old live range for liveness purposes (we treat
   them simply as non-killing defs). *)
let local_sets (b : Block.t) =
  let use = ref Reg.Set.empty and def = ref Reg.Set.empty in
  List.iter
    (fun (i : Instr.t) ->
      List.iter
        (fun r -> if (not (never_tracked r)) && not (Reg.Set.mem r !def) then use := Reg.Set.add r !use)
        (Instr.uses i);
      let killing = killing_def i in
      if killing then
        List.iter
          (fun r -> if not (never_tracked r) then def := Reg.Set.add r !def)
          (Instr.defs i)
      else
        (* conditional def: the old value may flow through *)
        List.iter
          (fun r ->
            if (not (never_tracked r)) && not (Reg.Set.mem r !def) then
              use := Reg.Set.add r !use)
          (Instr.defs i))
    b.Block.instrs;
  (!use, !def)

(* The fixed point runs on arrays indexed by label slot — one slot per
   distinct label, so the result is the per-label solution even if a label
   repeats — with every block's successor slots resolved once up front. *)
let compute (f : Func.t) =
  let slots : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let slot_of (b : Block.t) =
    match Hashtbl.find_opt slots b.Block.label with
    | Some s -> s
    | None ->
        let s = Hashtbl.length slots in
        Hashtbl.add slots b.Block.label s;
        s
  in
  let blocks = Array.of_list f.Func.blocks in
  let slot = Array.map slot_of blocks in
  let n = Hashtbl.length slots in
  let use = Array.make n Reg.Set.empty and def = Array.make n Reg.Set.empty in
  Array.iteri
    (fun k b ->
      let u, d = local_sets b in
      use.(slot.(k)) <- u;
      def.(slot.(k)) <- d)
    blocks;
  let succs =
    Array.map
      (fun b -> Array.of_list (List.filter_map (Hashtbl.find_opt slots) (Func.successors f b)))
      blocks
  in
  let live_in = Array.make n Reg.Set.empty and live_out = Array.make n Reg.Set.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    (* iterate in reverse layout order for fast convergence *)
    for k = Array.length blocks - 1 downto 0 do
      let s = slot.(k) in
      let out =
        Array.fold_left (fun acc t -> Reg.Set.union acc live_in.(t)) Reg.Set.empty succs.(k)
      in
      let inn = Reg.Set.union use.(s) (Reg.Set.diff out def.(s)) in
      if not (Reg.Set.equal out live_out.(s)) then begin
        live_out.(s) <- out;
        changed := true
      end;
      if not (Reg.Set.equal inn live_in.(s)) then begin
        live_in.(s) <- inn;
        changed := true
      end
    done
  done;
  let by_label a =
    let t = Hashtbl.create (max 16 (2 * n)) in
    Array.iteri (fun k (b : Block.t) -> Hashtbl.replace t b.Block.label a.(slot.(k))) blocks;
    t
  in
  { live_in = by_label live_in; live_out = by_label live_out }

(* Structural equality of two liveness solutions: same per-block live-in and
   live-out sets.  Used by the analysis cache's debug self-check. *)
let equal a b =
  let tbl_equal ta tb =
    Hashtbl.length ta = Hashtbl.length tb
    && Hashtbl.fold
         (fun l s acc ->
           acc
           &&
           match Hashtbl.find_opt tb l with
           | Some s' -> Reg.Set.equal s s'
           | None -> false)
         ta true
  in
  tbl_equal a.live_in b.live_in && tbl_equal a.live_out b.live_out

let live_in t label =
  match Hashtbl.find_opt t.live_in label with Some s -> s | None -> Reg.Set.empty

let live_out t label =
  match Hashtbl.find_opt t.live_out label with Some s -> s | None -> Reg.Set.empty

(* Registers live just before [i], from those live just after it.  At a
   side-exit branch the target's live-in joins the set: a value dead on the
   fall-through path may still be observed at the exit. *)
let transfer t (i : Instr.t) after =
  let live =
    match Instr.branch_target i with
    | Some target -> Reg.Set.union after (live_in t target)
    | None -> after
  in
  let live =
    if killing_def i then List.fold_left (fun l r -> Reg.Set.remove r l) live (Instr.defs i)
    else live
  in
  List.fold_left
    (fun l r -> if never_tracked r then l else Reg.Set.add r l)
    live (Instr.uses i)

(* Live registers immediately before each instruction of [b], as a list
   parallel to [b.instrs] (computed backwards from the fall-through
   live-out). *)
let per_instr t (f : Func.t) (b : Block.t) =
  ignore f;
  let rec go acc live = function
    | [] -> acc
    | (i : Instr.t) :: rest ->
        let live = transfer t i live in
        go (live :: acc) live rest
  in
  go [] (live_out t b.Block.label) (List.rev b.Block.instrs)
