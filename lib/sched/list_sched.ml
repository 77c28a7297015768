(* Cycle-driven list scheduling of each block against the Itanium 2 resource
   model.  Produces the compiler's plan of execution: every instruction gets
   an issue cycle (relative to block entry), and the block's instruction list
   is reordered to (cycle, original-order) so an in-order six-issue machine
   can simply sweep it.  Latency-0 predecessors must be placed no later and,
   within the same cycle, earlier in program order — the emission order
   guarantees this. *)

open Epic_ir
open Epic_analysis
open Epic_mach

let schedule_block ~desc (live : Liveness.t) (b : Block.t) =
  let g = Dag.build ~desc live b in
  let n = Array.length g.Dag.instrs in
  if n = 0 then ()
  else begin
    let prio = Dag.priorities g in
    let remaining_preds = Array.make n 0 in
    Array.iteri (fun j ps -> remaining_preds.(j) <- List.length ps) g.Dag.preds;
    (* earliest cycle each instruction may issue, given placed predecessors *)
    let earliest = Array.make n 0 in
    let placed = Array.make n false in
    let cycle_of = Array.make n (-1) in
    let emitted = ref [] in
    let n_placed = ref 0 in
    let cycle = ref 0 in
    while !n_placed < n do
      let caps = Itanium.fresh_caps desc in
      (* candidates: all preds placed, earliest <= cycle; latency-0 preds in
         the same cycle are fine because candidates are scanned in an order
         consistent with the DAG (by priority, ties by program order) and
         appended after their predecessors. *)
      let progress = ref true in
      while !progress do
        progress := false;
        (* collect ready instrs *)
        let ready = ref [] in
        for j = 0 to n - 1 do
          if (not placed.(j)) && remaining_preds.(j) = 0 && earliest.(j) <= !cycle
          then ready := j :: !ready
        done;
        let ready =
          List.sort
            (fun a b ->
              match compare prio.(b) prio.(a) with 0 -> compare a b | c -> c)
            !ready
        in
        List.iter
          (fun j ->
            if (not placed.(j)) && Itanium.take caps g.Dag.instrs.(j) then begin
              placed.(j) <- true;
              cycle_of.(j) <- !cycle;
              emitted := j :: !emitted;
              incr n_placed;
              progress := true;
              (* release successors *)
              List.iter
                (fun (s, lat) ->
                  remaining_preds.(s) <- remaining_preds.(s) - 1;
                  let e = !cycle + lat in
                  if e > earliest.(s) then earliest.(s) <- e)
                g.Dag.succs.(j)
            end)
          ready
      done;
      incr cycle
    done;
    (* rebuild the block in emission order with cycles annotated *)
    let order = List.rev !emitted in
    let instrs =
      List.map
        (fun j ->
          let i = g.Dag.instrs.(j) in
          i.Instr.cycle <- cycle_of.(j);
          i)
        order
    in
    (* stable by cycle (emission order already respects program order within
       a cycle for dependent pairs) *)
    b.Block.instrs <-
      List.stable_sort
        (fun (a : Instr.t) (b' : Instr.t) -> compare a.Instr.cycle b'.Instr.cycle)
        instrs
  end

(* Program-order scheduling: instructions keep their order; an instruction
   joins the current issue group only if its dependences and the resource
   model allow, otherwise the group is cut.  This models a traditional
   compiler (our GCC 3.2 stand-in) that performs no global instruction
   scheduling — it still benefits from bundle-level parallelism of adjacent
   independent operations, and nothing more. *)
let schedule_block_inorder ~desc (live : Liveness.t) (b : Block.t) =
  let g = Dag.build ~desc live b in
  let n = Array.length g.Dag.instrs in
  if n > 0 then begin
    let earliest = Array.make n 0 in
    let cycle = ref 0 in
    let caps = ref (Itanium.fresh_caps desc) in
    for j = 0 to n - 1 do
      let i = g.Dag.instrs.(j) in
      if earliest.(j) > !cycle then begin
        cycle := earliest.(j);
        caps := Itanium.fresh_caps desc
      end;
      while not (Itanium.take !caps i) do
        incr cycle;
        caps := Itanium.fresh_caps desc
      done;
      i.Instr.cycle <- !cycle;
      List.iter
        (fun (s, lat) ->
          let e = !cycle + lat in
          if e > earliest.(s) then earliest.(s) <- e)
        g.Dag.succs.(j)
    done
  end

let run_func ?cache ?(reorder = true) ~desc (f : Func.t) =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let live = Cache.liveness cache f in
  List.iter
    (if reorder then schedule_block ~desc live else schedule_block_inorder ~desc live)
    f.Func.blocks;
  (* scheduling reorders instructions within blocks (and always stamps
     issue cycles); only CFG-free global facts are kept *)
  Cache.invalidate cache ~preserve:Cache.[ Callgraph; Points_to ] f.Func.name

let run ?cache ?(reorder = true) ~desc (p : Program.t) =
  List.iter (run_func ?cache ~reorder ~desc) p.Program.funcs
