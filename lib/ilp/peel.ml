(* Loop peeling (Figure 3(b) of the paper): for loops whose profile shows an
   expected trip count near one — the crafty Evaluate() pattern of sequential
   while loops whose bodies "typically execute exactly once" — one iteration
   is pulled out in front.  The ordinarily-taken path then traverses only the
   peeled code, and the original loop is left as a cold(ish) "remainder" to
   clean up unlikely extra iterations.  The peeled copy, being branch-in
   free, can subsequently be absorbed into a surrounding trace (superblock or
   hyperblock), which is where the ILP benefit materializes. *)

open Epic_ir
open Epic_opt
open Epic_analysis

type params = {
  max_avg_trips : float; (* peel when the average trip count is below this *)
  min_avg_trips : float; (* and the loop actually runs (header weight > 0) *)
  max_body_instrs : int;
  growth_budget : float; (* fraction of function size available for copies *)
  mark_remainder_cold : bool;
}

let default_params =
  {
    max_avg_trips = 2.8;
    min_avg_trips = 1.25;
    max_body_instrs = 48;
    growth_budget = 0.15;
    mark_remainder_cold = true;
  }

(* Peel one iteration of [l].  The copy's back edges go to the original
   header (entering the remainder loop); all external entries are redirected
   to the copy.  Returns the number of instructions copied, [None] when the
   loop is not peeled. *)
let peel_loop (f : Func.t) (ps : params) (l : Natural_loops.loop) =
  let body_blocks = List.filter_map (Func.find_block f) l.Natural_loops.body in
  let size = List.fold_left (fun n b -> n + Block.instr_count b) 0 body_blocks in
  if
    size > ps.max_body_instrs
    || size
       > max 40
           (int_of_float (float_of_int (Region_util.code_size f) *. ps.growth_budget))
    || List.exists (fun (b : Block.t) -> b.Block.kind = Block.Recovery) body_blocks
    || List.mem (Func.entry f).Block.label l.Natural_loops.body
  then None
  else begin
    ignore (Jumpopt.materialize_fallthroughs f);
    (* Order body blocks in layout order for a sensible copy layout. *)
    let body_in_layout =
      List.filter (fun (b : Block.t) -> Natural_loops.in_loop l b.Block.label) f.Func.blocks
    in
    let copies0, lmap = Region_util.duplicate_blocks f ~weight_scale:1.0 body_blocks in
    (* Arrange the copies in the original layout order. *)
    let copies =
      List.map
        (fun (b : Block.t) ->
          let lbl = Hashtbl.find lmap b.Block.label in
          List.find (fun (c : Block.t) -> c.Block.label = lbl) copies0)
        body_in_layout
    in
    (* Branch remapping inside copies: duplicate_blocks already remapped
       intra-set targets, including the back edge to the header — but a
       peeled iteration must fall into the REMAINDER loop, so back edges in
       the copies are redirected to the original header. *)
    let header_copy = Hashtbl.find lmap l.Natural_loops.header in
    List.iter
      (fun (c : Block.t) ->
        List.iter
          (fun (i : Instr.t) ->
            match Instr.branch_target i with
            | Some t when t = header_copy && c.Block.label <> header_copy ->
                (* this was a latch edge in the copy *)
                i.Instr.srcs <- [ Operand.Label l.Natural_loops.header ]
            | _ -> ())
          c.Block.instrs)
      copies;
    (* Redirect external entries to the copied header. *)
    Region_util.retarget_branches f ~from_l:l.Natural_loops.header ~to_l:header_copy
      ~when_src:(fun b ->
        (not (Natural_loops.in_loop l b.Block.label))
        && not (List.exists (fun (c : Block.t) -> c == b) copies));
    (* Insert the copies before the original header in layout. *)
    let header_block = Func.find_block_exn f l.Natural_loops.header in
    let rec insert = function
      | [] -> copies
      | x :: tl when x == header_block -> copies @ (x :: tl)
      | x :: tl -> x :: insert tl
    in
    f.Func.blocks <- insert f.Func.blocks;
    (* The remainder loop is now entered only via surviving latch edges of
       the peeled copy; weight-wise it is lukewarm or cold. *)
    let reentry = max 0. (l.Natural_loops.avg_trips -. 1.0) in
    List.iter
      (fun (b : Block.t) ->
        b.Block.weight <- b.Block.weight *. reentry /. max l.Natural_loops.avg_trips 0.01;
        if ps.mark_remainder_cold && reentry < 0.25 then b.Block.cold <- true)
      body_blocks;
    Some size
  end

let run_func ?cache ?(params = default_params) (f : Func.t) =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let loops = Cache.loops cache f in
  let candidates =
    List.filter
      (fun (l : Natural_loops.loop) ->
        l.Natural_loops.avg_trips > params.min_avg_trips
        && l.Natural_loops.avg_trips <= params.max_avg_trips
        &&
        match Func.find_block f l.Natural_loops.header with
        | Some h -> h.Block.weight >= 1.0
        | None -> false)
      (Natural_loops.innermost_first loops)
  in
  (* Peel only disjoint loops in one pass (the CFG changes invalidate the
     loop analysis); outer/overlapping loops can be handled on a later call. *)
  let touched = Hashtbl.create 16 in
  let loops = ref 0 and instrs = ref 0 in
  List.iter
    (fun (l : Natural_loops.loop) ->
      let overlaps = List.exists (Hashtbl.mem touched) l.Natural_loops.body in
      if not overlaps then
        match peel_loop f params l with
        | Some size ->
            incr loops;
            instrs := !instrs + size;
            List.iter (fun b -> Hashtbl.replace touched b ()) l.Natural_loops.body
        | None -> ())
    candidates;
  if !loops > 0 then
    Cache.invalidate cache ~preserve:[ Cache.Points_to ] f.Func.name;
  (!loops, !instrs)

let run ?cache ?(params = default_params) (p : Program.t) =
  List.fold_left (fun n f -> n + fst (run_func ?cache ~params f)) 0 p.Program.funcs
