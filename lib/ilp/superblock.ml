(* Superblock formation [Hwu et al., JoS'93]: select frequently-traversed
   traces with the mutual-most-likely heuristic, remove side entrances by
   tail duplication (node splitting), and merge each trace into a single-
   entry superblock with side exits.  Tail duplication is limited by a
   static-code-growth budget (the paper reports a 21% average increase). *)

open Epic_ir
open Epic_opt

type params = {
  min_edge_prob : float; (* follow an edge only above this probability *)
  min_block_weight : float; (* seeds must be at least this hot *)
  growth_budget : float; (* max fractional code growth from duplication *)
  max_trace_len : int;
}

let default_params =
  { min_edge_prob = 0.60; min_block_weight = 1.0; growth_budget = 0.25; max_trace_len = 16 }

(* Select traces: lists of block labels, hottest seeds first. *)
let select_traces (f : Func.t) (ps : params) =
  let visited = Hashtbl.create 32 in
  let entry_label = (Func.entry f).Block.label in
  let seeds =
    List.filter
      (fun (b : Block.t) ->
        b.Block.weight >= ps.min_block_weight
        && b.Block.kind <> Block.Recovery && not b.Block.cold)
      f.Func.blocks
    |> List.sort (fun (a : Block.t) b -> compare b.Block.weight a.Block.weight)
  in
  let traces = ref [] in
  List.iter
    (fun (seed : Block.t) ->
      if not (Hashtbl.mem visited seed.Block.label) then begin
        Hashtbl.replace visited seed.Block.label ();
        let trace = ref [ seed.Block.label ] in
        let cur = ref seed in
        let continue = ref true in
        while !continue && List.length !trace < ps.max_trace_len do
          match Region_util.best_successor f !cur with
          | Some (next_l, p)
            when p >= ps.min_edge_prob
                 && (not (Hashtbl.mem visited next_l))
                 && next_l <> entry_label -> (
              match Func.find_block f next_l with
              | Some next
                when next.Block.kind <> Block.Recovery && not next.Block.cold
                     (* mutual-most-likely: most of [next]'s weight must come
                        from [cur] *)
                     && (!cur).Block.weight *. p >= 0.5 *. next.Block.weight ->
                  Hashtbl.replace visited next_l ();
                  trace := next_l :: !trace;
                  cur := next
              | _ -> continue := false)
          | _ -> continue := false
        done;
        let t = List.rev !trace in
        if List.length t >= 2 then traces := t :: !traces
      end)
    seeds;
  List.rev !traces

(* Remove side entrances into [trace] (all blocks after the head) by
   duplicating the trace suffix for external predecessors.  Returns the
   (possibly truncated) trace that is now single-entry and the number of
   instructions duplicated (the part of the growth budget spent). *)
let remove_side_entrances (f : Func.t) (ps : params) (trace : string list) =
  let budget0 = int_of_float (float_of_int (Region_util.code_size f) *. ps.growth_budget) in
  let budget = ref budget0 in
  ignore (Jumpopt.materialize_fallthroughs f);
  let rec go kept = function
    | [] -> List.rev kept
    | label :: rest when kept = [] ->
        (* the trace head is the region entry; side entrances are fine *)
        go [ label ] rest
    | label :: rest ->
        let preds = Func.predecessors f in
        let prev = match kept with p :: _ -> Some p | [] -> None in
        let external_preds =
          match Hashtbl.find_opt preds label with
          | Some ps' ->
              List.filter
                (fun p -> Some p <> prev && not (List.mem p (label :: rest)))
                ps'
          | None -> []
        in
        (* a branch within the suffix to a later suffix block is also a side
           entrance; conservatively stop the trace there *)
        if external_preds = [] then go (label :: kept) rest
        else begin
          (* duplicate the suffix starting at [label] *)
          let suffix_blocks =
            List.filter_map (Func.find_block f) (label :: rest)
          in
          let size = List.fold_left (fun n b -> n + Block.instr_count b) 0 suffix_blocks in
          if size <= !budget then begin
            budget := !budget - size;
            (* entry ratio: fraction of weight entering from outside *)
            let total_w =
              match Func.find_block f label with Some b -> max b.Block.weight 1. | None -> 1.
            in
            let ext_w =
              List.fold_left
                (fun acc p ->
                  match Func.find_block f p with
                  | Some pb -> acc +. (Region_util.edge_prob f pb label *. pb.Block.weight)
                  | None -> acc)
                0. external_preds
            in
            let scale = min 1.0 (ext_w /. total_w) in
            let copies, lmap = Region_util.duplicate_blocks f ~weight_scale:scale suffix_blocks in
            (* scale originals down *)
            List.iter
              (fun (b : Block.t) -> b.Block.weight <- b.Block.weight *. (1. -. scale))
              suffix_blocks;
            (* the copies go at the end of the layout; they end with explicit
               branches (fallthroughs were materialized) *)
            f.Func.blocks <- f.Func.blocks @ copies;
            let copy_head = Hashtbl.find lmap label in
            List.iter
              (fun p ->
                Region_util.retarget_branches f ~from_l:label ~to_l:copy_head
                  ~when_src:(fun b -> b.Block.label = p))
              external_preds;
            go (label :: kept) rest
          end
          else
            (* out of budget: truncate the trace before this block *)
            List.rev kept
        end
  in
  let kept = go [] trace in
  (kept, budget0 - !budget)

(* Merge a single-entry trace into one superblock; false when the trace is
   too short to form one. *)
let merge_trace (f : Func.t) (trace : string list) =
  match trace with
  | [] | [ _ ] -> false
  | head_l :: rest ->
      let head = Func.find_block_exn f head_l in
      let stopped = ref false in
      List.iter
        (fun label ->
          if not !stopped then begin
            let b = Func.find_block_exn f label in
            (* Make [label] the implicit continuation of [head]: either drop
               a trailing unconditional branch to it, or reverse a trailing
               "(pt) br label; br other" pair into "(pf) br other". *)
            let stripped =
              match List.rev head.Block.instrs with
              | last :: before
                when last.Instr.op = Opcode.Br && last.Instr.pred = None
                     && Instr.branch_target last = Some label ->
                  head.Block.instrs <- List.rev before;
                  true
              | (brf : Instr.t) :: (brt : Instr.t) :: _
                when brf.Instr.op = Opcode.Br && brf.Instr.pred = None
                     && brt.Instr.op = Opcode.Br && brt.Instr.pred <> None
                     && Instr.branch_target brt = Some label -> (
                  let pt = Option.get brt.Instr.pred in
                  (* reuse the hyperblock helper through a probe block that
                     excludes the terminating branches *)
                  let probe = Block.create "probe" in
                  probe.Block.instrs <-
                    List.filter (fun i -> i != brf && i != brt) head.Block.instrs;
                  match Hyperblock.complement_pred probe pt with
                  | Some (_, pf) ->
                      brf.Instr.pred <- Some pf;
                      brf.Instr.attrs.Instr.taken_prob <-
                        1.0 -. brt.Instr.attrs.Instr.taken_prob;
                      head.Block.instrs <-
                        List.filter (fun i -> i != brt) head.Block.instrs;
                      true
                  | None -> false)
              | _ -> false
            in
            (* merging removes [label]; any surviving branch to it (e.g. a
               second edge from the same predecessor) forbids the merge *)
            let still_targeted =
              Func.fold_instrs f
                (fun acc i -> acc || Instr.branch_target i = Some label)
                false
            in
            if (not stripped) || still_targeted then begin
              (* restore and stop extending this superblock *)
              (if stripped then
                 head.Block.instrs <-
                   head.Block.instrs
                   @ [ Instr.create Opcode.Br ~srcs:[ Operand.Label label ] ]);
              stopped := true
            end
            else begin
              head.Block.instrs <- head.Block.instrs @ b.Block.instrs;
              f.Func.blocks <- List.filter (fun x -> x != b) f.Func.blocks
            end
          end)
        rest;
      head.Block.kind <- Block.Super;
      true

(* Returns (mutated, superblocks formed, instructions tail-duplicated).  A
   function was mutated when a superblock formed, a suffix was duplicated,
   or the remaining mutations (fall-through materialization,
   unreachable-block removal) shifted the block or instruction count. *)
let run_func ?(params = default_params) (f : Func.t) =
  let blocks0 = List.length f.Func.blocks and instrs0 = Func.instr_count f in
  let formed = ref 0 and dup = ref 0 in
  List.iter
    (fun trace ->
      (* the trace may have been invalidated by earlier merges *)
      if List.for_all (fun l -> Func.find_block f l <> None) trace then begin
        let t, size = remove_side_entrances f params trace in
        dup := !dup + size;
        if merge_trace f t then incr formed
      end)
    (select_traces f params);
  Func.remove_unreachable f;
  ( !formed > 0 || !dup > 0
    || List.length f.Func.blocks <> blocks0
    || Func.instr_count f <> instrs0,
    !formed,
    !dup )

let run ?(params = default_params) (p : Program.t) =
  List.fold_left
    (fun n f ->
      let _, formed, _ = run_func ~params f in
      n + formed)
    0 p.Program.funcs
