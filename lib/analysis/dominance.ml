(* Dominator analysis over the block CFG, by the classic iterative dataflow
   formulation (adequate at our CFG sizes).  Used by natural-loop detection,
   GVN scoping, LICM and the structural transforms' safety checks. *)

open Epic_ir

type t = {
  func : Func.t;
  idom : (string, string) Hashtbl.t; (* label -> immediate dominator *)
  order : string array; (* reverse postorder *)
}

let reverse_postorder (f : Func.t) =
  let visited = Hashtbl.create 16 in
  let acc = ref [] in
  let rec visit label =
    if not (Hashtbl.mem visited label) then begin
      Hashtbl.add visited label ();
      (match Func.find_block f label with
      | Some b -> List.iter visit (Func.successors f b)
      | None -> ());
      acc := label :: !acc
    end
  in
  visit (Func.entry f).Block.label;
  Array.of_list !acc

let compute (f : Func.t) =
  let order = reverse_postorder f in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i l -> Hashtbl.replace index l i) order;
  let preds = Func.predecessors f in
  let idom : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let entry = (Func.entry f).Block.label in
  Hashtbl.replace idom entry entry;
  (* Cooper-Harvey-Kennedy iterative algorithm. *)
  let intersect a b =
    let rec go a b =
      if a = b then a
      else
        let ia = Hashtbl.find index a and ib = Hashtbl.find index b in
        if ia > ib then go (Hashtbl.find idom a) b
        else go a (Hashtbl.find idom b)
    in
    go a b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun label ->
        if label <> entry then begin
          let ps =
            match Hashtbl.find_opt preds label with Some l -> l | None -> []
          in
          (* only predecessors that are themselves reachable & processed *)
          let ps = List.filter (fun p -> Hashtbl.mem index p) ps in
          let processed = List.filter (fun p -> Hashtbl.mem idom p) ps in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if Hashtbl.find_opt idom label <> Some new_idom then begin
                Hashtbl.replace idom label new_idom;
                changed := true
              end
        end)
      order
  done;
  { func = f; idom; order }

let entry_label t = (Func.entry t.func).Block.label

let immediate_dominator t label =
  if label = entry_label t then None else Hashtbl.find_opt t.idom label

(* Does [a] dominate [b]?  (Reflexive.) *)
let dominates t a b =
  let rec go cur =
    if cur = a then true
    else
      match immediate_dominator t cur with
      | Some d -> go d
      | None -> false
  in
  if not (Hashtbl.mem t.idom b) then false else go b

(* Blocks in reverse postorder (reachable blocks only). *)
let rpo t = t.order

(* Structural equality of two dominator solutions over the same function:
   same reverse postorder and the same immediate-dominator map.  Used by the
   analysis cache's debug self-check (cached-equals-fresh). *)
let equal a b =
  a.order = b.order
  && Hashtbl.length a.idom = Hashtbl.length b.idom
  && Hashtbl.fold
       (fun l d acc -> acc && Hashtbl.find_opt b.idom l = Some d)
       a.idom true
