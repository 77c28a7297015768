(* Functions: an ordered list of blocks (layout order), parameter registers
   and counters for generating fresh virtual registers and labels.  The first
   block is the entry. *)

(* Predecoded control flow (DESIGN.md §10): per-function label->block and
   block->fallthrough tables, so the execution engines resolve a taken
   branch or a block exit in one hash lookup instead of a linear scan of
   the block list.  The cache is keyed on the *physical identity* of the
   [blocks] list: OCaml lists are immutable, so every structural change —
   insertion, removal, reordering, reassignment — necessarily replaces the
   list spine, and a simple [==] check detects it.  In-place mutation of a
   block's instructions never changes its label or layout position, so it
   cannot stale the index. *)
type index = {
  ix_spine : Block.t list; (* the blocks value this index was built from *)
  ix_blocks : (string, Block.t) Hashtbl.t; (* label -> first block *)
  ix_fall : (string, Block.t * Block.t option) Hashtbl.t;
      (* label -> (first block with that label, its layout successor) *)
}

type t = {
  name : string;
  mutable params : Reg.t list;
  mutable blocks : Block.t list; (* layout order; head = entry *)
  mutable next_reg : int;
  mutable next_label : int;
  mutable frame_bytes : int; (* memory-stack frame for local arrays/spills *)
  mutable n_stacked : int; (* stacked registers used, set by regalloc *)
  mutable returns_float : bool;
  mutable index : index option; (* lazily built; auto-invalidated by spine *)
}

let create name params =
  {
    name;
    params;
    blocks = [];
    next_reg = 1000;
    next_label = 0;
    frame_bytes = 0;
    n_stacked = 0;
    returns_float = false;
    index = None;
  }

let build_index (blocks : Block.t list) =
  let n = List.length blocks in
  let ix_blocks = Hashtbl.create (max 8 (2 * n)) in
  let ix_fall = Hashtbl.create (max 8 (2 * n)) in
  let rec go = function
    | [] -> ()
    | (b : Block.t) :: tl ->
        (* duplicate labels: keep the first, matching [List.find_opt] *)
        if not (Hashtbl.mem ix_blocks b.Block.label) then begin
          Hashtbl.add ix_blocks b.Block.label b;
          Hashtbl.add ix_fall b.Block.label
            (b, match tl with nb :: _ -> Some nb | [] -> None)
        end;
        go tl
  in
  go blocks;
  { ix_spine = blocks; ix_blocks; ix_fall }

let index f =
  match f.index with
  | Some ix when ix.ix_spine == f.blocks -> ix
  | _ ->
      let ix = build_index f.blocks in
      f.index <- Some ix;
      ix

(* A structural deep copy: fresh blocks and instructions; registers are
   immutable values and stay shared.  Lets a driver snapshot a function
   before destructive transformation. *)
let copy f =
  {
    name = f.name;
    params = f.params;
    blocks = List.map Block.copy f.blocks;
    next_reg = f.next_reg;
    next_label = f.next_label;
    frame_bytes = f.frame_bytes;
    n_stacked = f.n_stacked;
    returns_float = f.returns_float;
    index = None;
  }

let entry f =
  match f.blocks with
  | b :: _ -> b
  | [] -> invalid_arg ("Func.entry: empty function " ^ f.name)

let fresh_reg f cls =
  let id = f.next_reg in
  f.next_reg <- id + 1;
  Reg.virt id cls

let fresh_label f base =
  let n = f.next_label in
  f.next_label <- n + 1;
  Printf.sprintf "%s_%d" base n

let find_block f label = Hashtbl.find_opt (index f).ix_blocks label

let find_block_exn f label =
  match find_block f label with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Func.find_block: no block %s in %s" label f.name)

(* The block control falls through to when [b] does not take a branch, i.e.
   the next block in layout order.  [None] at the end of the layout.  The
   indexed fast path applies when [b] is the first block bearing its label
   (always, for well-formed functions); a duplicate-label alias falls back
   to the exact linear scan. *)
let fallthrough f b =
  match Hashtbl.find_opt (index f).ix_fall b.Block.label with
  | Some (b', next) when b' == b -> next
  | _ ->
      let rec go = function
        | x :: (y :: _ as tl) -> if x == b then Some y else go tl
        | [ _ ] | [] -> None
      in
      go f.blocks

(* All successors of [b]: explicit branch targets plus the fall-through block
   when the block can fall through. *)
let successors f b =
  let targets = Block.branch_targets b in
  let fall =
    if Block.ends_in_unconditional b then []
    else
      match fallthrough f b with Some n -> [ n.Block.label ] | None -> []
  in
  (* first occurrence of each label, in order; the lists are short *)
  let rec dedup seen = function
    | [] -> []
    | l :: tl -> if List.mem l seen then dedup seen tl else l :: dedup (l :: seen) tl
  in
  dedup [] (targets @ fall)

(* Map from block label to the labels of its predecessors. *)
let predecessors f =
  let preds : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace preds b.Block.label []) f.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt preds s with
          | Some l -> Hashtbl.replace preds s (b.Block.label :: l)
          | None -> ())
        (successors f b))
    f.blocks;
  preds

let iter_instrs f g = List.iter (fun b -> List.iter g b.Block.instrs) f.blocks

let fold_instrs f g acc =
  List.fold_left
    (fun acc b -> List.fold_left g acc b.Block.instrs)
    acc f.blocks

let instr_count f = fold_instrs f (fun n _ -> n + 1) 0

(* Insert [nb] right after block [after] in layout order. *)
let insert_after f after nb =
  let rec go = function
    | [] -> [ nb ]
    | x :: tl when x == after -> x :: nb :: tl
    | x :: tl -> x :: go tl
  in
  f.blocks <- go f.blocks

let append_block f b = f.blocks <- f.blocks @ [ b ]

(* Remove blocks unreachable from the entry (they would otherwise distort
   code-size and instruction-cache measurements). *)
let remove_unreachable f =
  match f.blocks with
  | [] -> ()
  | entry :: _ ->
      let reachable = Hashtbl.create 16 in
      let rec visit label =
        if not (Hashtbl.mem reachable label) then begin
          Hashtbl.add reachable label ();
          match find_block f label with
          | Some b -> List.iter visit (successors f b)
          | None -> ()
        end
      in
      visit entry.Block.label;
      (* Keep recovery blocks: they are reached via speculation checks. *)
      List.iter
        (fun b ->
          List.iter
            (fun (i : Instr.t) ->
              match i.attrs.recovery with
              | Some l -> if Hashtbl.mem reachable b.Block.label then visit l
              | None -> ())
            b.Block.instrs)
        f.blocks;
      f.blocks <- List.filter (fun b -> Hashtbl.mem reachable b.Block.label) f.blocks

(* Move cold-marked blocks to the end of the layout, preserving relative
   order, so that hot code is contiguous (block layout per Section 3.1). *)
let layout_cold_last f =
  match f.blocks with
  | [] -> ()
  | entry :: _ ->
      ignore entry;
      let hot, cold = List.partition (fun b -> not b.Block.cold) f.blocks in
      (* A cold block that could be fallen into from a hot block must stay
         reachable: layout change is only safe if every hot block that fell
         through to a cold block gets an explicit branch.  Callers are
         expected to have added explicit branches already; [Verify] checks. *)
      f.blocks <- hot @ cold

let pp ppf f =
  Fmt.pf ppf "func @%s(%a)  ; frame=%dB stacked=%d@." f.name
    Fmt.(list ~sep:(any ", ") Reg.pp)
    f.params f.frame_bytes f.n_stacked;
  List.iter (fun b -> Block.pp ppf b) f.blocks
