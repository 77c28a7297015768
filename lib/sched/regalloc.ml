(* Register allocation: linear scan over whole-function live intervals, with
   loop-extension of intervals, mapping virtual registers onto the IA-64
   register files.  Integer values are placed in the register stack
   (r32-r127) first — their count, recorded as [n_stacked], drives the
   register stack engine cost model of Section 4.4 — and spill code goes to
   the memory stack frame.

   Calling convention note (see DESIGN.md): parameters and returns are
   carried by the call instruction itself and the simulator gives each frame
   its own register file, so allocation has no ABI constraints; what it
   models is pressure (stacked-register consumption and spill code). *)

open Epic_ir
open Epic_analysis

exception Out_of_registers of string

(* Reserved physical registers never allocated. *)
let int_spill_temp1 = Reg.phys 2 Reg.Int
let int_spill_temp2 = Reg.phys 3 Reg.Int
let flt_spill_temp1 = Reg.phys 6 Reg.Flt
let flt_spill_temp2 = Reg.phys 7 Reg.Flt

(* Allocation pools.  Scratch integer registers serve values that do not
   live across a call; the register stack (r32-r127) serves call-crossing
   values — matching IA-64 conventions and keeping [n_stacked], the RSE
   traffic driver, to what genuinely must survive calls. *)
let int_scratch_pool = List.init 18 (fun i -> 14 + i)
let int_stacked_pool = List.init 96 (fun i -> 32 + i)

let flt_pool = List.init 120 (fun i -> 8 + i)
let prd_pool = List.init 62 (fun i -> 1 + i)

type interval = {
  vreg : Reg.t;
  mutable first : int;
  mutable last : int;
  mutable occurrences : int;
}

(* Linearize: assign positions to all instructions in layout order; returns
   per-block (start, end) position ranges. *)
let positions (f : Func.t) =
  let pos = ref 0 in
  let ranges = Hashtbl.create 16 in
  List.iter
    (fun (b : Block.t) ->
      let start = !pos in
      List.iter (fun _ -> incr pos) b.Block.instrs;
      Hashtbl.replace ranges b.Block.label (start, max start (!pos - 1)))
    f.Func.blocks;
  ranges

(* Compute live intervals for all virtual registers. *)
let intervals (cache : Cache.t) (f : Func.t) =
  let tbl : interval Reg.Tbl.t = Reg.Tbl.create 64 in
  let note (r : Reg.t) pos =
    if not r.Reg.phys then begin
      match Reg.Tbl.find_opt tbl r with
      | Some iv ->
          if pos < iv.first then iv.first <- pos;
          if pos > iv.last then iv.last <- pos;
          iv.occurrences <- iv.occurrences + 1
      | None -> Reg.Tbl.replace tbl r { vreg = r; first = pos; last = pos; occurrences = 1 }
    end
  in
  let pos = ref 0 in
  (* parameters are live from function entry *)
  List.iter (fun p -> note p (-1)) f.Func.params;
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          List.iter (fun r -> note r !pos) (Instr.uses i);
          List.iter (fun r -> note r !pos) (Instr.defs i);
          (match i.Instr.attrs.Instr.check_reg with
          | Some r -> note r !pos
          | None -> ());
          incr pos)
        b.Block.instrs)
    f.Func.blocks;
  (* Loop extension: a value can be live around a back edge at positions
     with no occurrence, so an interval overlapping a loop must cover the
     whole loop — but only for registers actually live into the loop header
     (everything else is iteration-local and may be reused freely; without
     this restriction, unrolled hyperblocks exhaust the predicate file). *)
  let ranges = positions f in
  let loops = Cache.loops cache f in
  let live = Cache.liveness cache f in
  List.iter
    (fun (l : Natural_loops.loop) ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) label ->
            match Hashtbl.find_opt ranges label with
            | Some (s, e) -> (min lo s, max hi e)
            | None -> (lo, hi))
          (max_int, min_int) l.Natural_loops.body
      in
      let header_live = Liveness.live_in live l.Natural_loops.header in
      if lo <= hi then
        Reg.Tbl.iter
          (fun r iv ->
            let overlaps = iv.first <= hi && iv.last >= lo in
            if
              overlaps
              && (iv.first < lo || iv.last > hi)
              && Reg.Set.mem r header_live
            then begin
              if iv.first > lo then iv.first <- lo;
              if iv.last < hi then iv.last <- hi
            end)
          tbl)
    loops.Natural_loops.loops;
  Reg.Tbl.fold (fun _ iv acc -> iv :: acc) tbl []

(* Ensure the function has a frame of at least [bytes]; rewrites (or adds)
   the prologue/epilogue sp adjustments and returns unit. *)
let set_frame_size (f : Func.t) (bytes : int) =
  let old = f.Func.frame_bytes in
  if bytes <> old then begin
    f.Func.frame_bytes <- bytes;
    let entry = Func.entry f in
    (* prologue *)
    let has_prologue =
      List.exists
        (fun (i : Instr.t) ->
          i.Instr.op = Opcode.Sub && i.Instr.dsts = [ Reg.sp ]
          &&
          match i.Instr.srcs with
          | [ Operand.Reg r; Operand.Imm _ ] when Reg.equal r Reg.sp ->
              i.Instr.srcs <- [ Operand.Reg Reg.sp; Operand.imm bytes ];
              true
          | _ -> false)
        entry.Block.instrs
    in
    if not has_prologue then
      entry.Block.instrs <-
        Instr.create Opcode.Sub ~dsts:[ Reg.sp ]
          ~srcs:[ Operand.Reg Reg.sp; Operand.imm bytes ]
        :: entry.Block.instrs;
    (* epilogues: the add before each return *)
    List.iter
      (fun (b : Block.t) ->
        let rec fix = function
          | [] -> []
          | (i : Instr.t) :: tl when i.Instr.op = Opcode.Br_ret ->
              if old > 0 then
                (* the preceding add was already rewritten below *)
                i :: fix tl
              else
                Instr.create Opcode.Add ~dsts:[ Reg.sp ]
                  ~srcs:[ Operand.Reg Reg.sp; Operand.imm bytes ]
                :: i :: fix tl
          | i :: tl -> i :: fix tl
        in
        if old > 0 then
          List.iter
            (fun (i : Instr.t) ->
              if
                i.Instr.op = Opcode.Add && i.Instr.dsts = [ Reg.sp ]
                &&
                match i.Instr.srcs with
                | [ Operand.Reg r; Operand.Imm k ]
                  when Reg.equal r Reg.sp && Int64.to_int k = old ->
                    true
                | _ -> false
              then i.Instr.srcs <- [ Operand.Reg Reg.sp; Operand.imm bytes ])
            b.Block.instrs
        else b.Block.instrs <- fix b.Block.instrs)
      f.Func.blocks
  end

(* Linear-scan allocation for one register class.  Returns the assignment
   and the list of spilled intervals. *)
let allocate_class (ivs : interval list) (pool : int list) (cls : Reg.cls) =
  let sorted = List.sort (fun a b -> compare a.first b.first) ivs in
  let free = ref pool in
  let active : (int * interval) list ref = ref [] (* (phys id, iv), by last *)
  and assignment : int Reg.Tbl.t = Reg.Tbl.create 64
  and spilled = ref [] in
  let expire now =
    let dead, alive = List.partition (fun (_, iv) -> iv.last < now) !active in
    List.iter (fun (id, _) -> free := id :: !free) dead;
    active := alive
  in
  List.iter
    (fun iv ->
      expire iv.first;
      match !free with
      | id :: rest ->
          free := rest;
          Reg.Tbl.replace assignment iv.vreg id;
          active := (id, iv) :: !active
      | [] ->
          (* spill the active interval with the furthest end (or this one) *)
          let victim =
            List.fold_left
              (fun (best : (int * interval) option) (id, a) ->
                match best with
                | Some (_, b) when b.last >= a.last -> best
                | _ -> Some (id, a))
              None !active
          in
          (match victim with
          | Some (vid, viv) when viv.last > iv.last && cls <> Reg.Prd ->
              (* steal the victim's register *)
              Reg.Tbl.remove assignment viv.vreg;
              spilled := viv :: !spilled;
              active := List.filter (fun (_, a) -> a != viv) !active;
              Reg.Tbl.replace assignment iv.vreg vid;
              active := (vid, iv) :: !active
          | _ when cls <> Reg.Prd -> spilled := iv :: !spilled
          | _ ->
              raise
                (Out_of_registers
                   "predicate registers exhausted (hyperblock too large)")))
    sorted;
  (assignment, !spilled)

(* Rewrite spill code: each use of a spilled vreg is reloaded from its
   frame slot through a reserved temp; each spilled def stores its temp back.
   Within one instruction the two reserved int temps alternate, so up to two
   spilled sources plus a spilled destination are handled. *)
let insert_spill_code (f : Func.t) (slot_of : Reg.t -> int option) =
  List.iter
    (fun (b : Block.t) ->
      b.Block.instrs <-
        List.concat_map
          (fun (i : Instr.t) ->
            let toggle = ref false in
            let next_int_temp () =
              toggle := not !toggle;
              if !toggle then int_spill_temp1 else int_spill_temp2
            in
            let ftoggle = ref false in
            let next_flt_temp () =
              ftoggle := not !ftoggle;
              if !ftoggle then flt_spill_temp1 else flt_spill_temp2
            in
            let pre = ref [] and post = ref [] in
            let reload (r : Reg.t) off =
              let atmp = next_int_temp () in
              let vtmp = match r.Reg.cls with Reg.Flt -> next_flt_temp () | _ -> atmp in
              pre :=
                !pre
                @ [
                    Instr.create Opcode.Add ~dsts:[ atmp ]
                      ~srcs:[ Operand.Reg Reg.sp; Operand.imm off ];
                    Instr.create (Opcode.Ld (Opcode.B8, Opcode.Nonspec))
                      ~dsts:[ vtmp ] ~srcs:[ Operand.Reg atmp ];
                  ];
              vtmp
            in
            let spill_store (r : Reg.t) off =
              let vtmp =
                match r.Reg.cls with
                | Reg.Flt -> next_flt_temp ()
                | _ -> next_int_temp ()
              in
              let atmp =
                (* the other int temp, so the value survives *)
                if Reg.equal vtmp int_spill_temp1 then int_spill_temp2
                else int_spill_temp1
              in
              post :=
                !post
                @ [
                    Instr.create Opcode.Add ~dsts:[ atmp ]
                      ~srcs:[ Operand.Reg Reg.sp; Operand.imm off ];
                    Instr.create (Opcode.St Opcode.B8)
                      ~srcs:[ Operand.Reg atmp; Operand.Reg vtmp ];
                  ];
              vtmp
            in
            let subst_use (r : Reg.t) =
              match slot_of r with Some off -> Some (reload r off) | None -> None
            in
            Instr.substitute_uses subst_use i;
            i.Instr.dsts <-
              List.map
                (fun (r : Reg.t) ->
                  match slot_of r with
                  | Some off -> spill_store r off
                  | None -> r)
                i.Instr.dsts;
            !pre @ [ i ] @ !post)
          b.Block.instrs)
    f.Func.blocks

(* Integer allocation with call-crossing awareness: non-crossing intervals
   prefer scratch registers, crossing intervals must use the register
   stack. *)
let allocate_int (ivs : interval list) (call_positions : int list) =
  let sorted = List.sort (fun a b -> compare a.first b.first) ivs in
  let crosses iv =
    List.exists (fun c -> c >= iv.first && c < iv.last) call_positions
  in
  let free_scratch = ref int_scratch_pool in
  let free_stacked = ref int_stacked_pool in
  let active : (int * interval) list ref = ref [] in
  let assignment : int Reg.Tbl.t = Reg.Tbl.create 64 in
  let spilled = ref [] in
  let release id =
    if id >= Reg.first_stacked then free_stacked := id :: !free_stacked
    else free_scratch := id :: !free_scratch
  in
  let expire now =
    let dead, alive = List.partition (fun (_, iv) -> iv.last < now) !active in
    List.iter (fun (id, _) -> release id) dead;
    active := alive
  in
  List.iter
    (fun iv ->
      expire iv.first;
      let take =
        if crosses iv then
          match !free_stacked with
          | id :: rest ->
              free_stacked := rest;
              Some id
          | [] -> None
        else
          match (!free_scratch, !free_stacked) with
          | id :: rest, _ ->
              free_scratch := rest;
              Some id
          | [], id :: rest ->
              free_stacked := rest;
              Some id
          | [], [] -> None
      in
      match take with
      | Some id ->
          Reg.Tbl.replace assignment iv.vreg id;
          active := (id, iv) :: !active
      | None -> (
          (* spill the active interval with the furthest end, if further *)
          let victim =
            List.fold_left
              (fun best (id, a) ->
                match best with
                | Some (_, (b : interval)) when b.last >= a.last -> best
                | _ -> Some (id, a))
              None !active
          in
          match victim with
          | Some (vid, viv) when viv.last > iv.last ->
              Reg.Tbl.remove assignment viv.vreg;
              spilled := viv :: !spilled;
              active := List.filter (fun (_, a) -> a != viv) !active;
              Reg.Tbl.replace assignment iv.vreg vid;
              active := (vid, iv) :: !active
          | _ -> spilled := iv :: !spilled))
    sorted;
  (assignment, !spilled)

let call_positions (f : Func.t) =
  let pos = ref 0 in
  let calls = ref [] in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          if Instr.is_call i then calls := !pos :: !calls;
          incr pos)
        b.Block.instrs)
    f.Func.blocks;
  List.rev !calls

let run_func ?cache (f : Func.t) =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let ivs = intervals cache f in
  let by_class c = List.filter (fun iv -> iv.vreg.Reg.cls = c) ivs in
  let int_asg, int_spills = allocate_int (by_class Reg.Int) (call_positions f) in
  let flt_asg, flt_spills = allocate_class (by_class Reg.Flt) flt_pool Reg.Flt in
  let prd_asg, _ = allocate_class (by_class Reg.Prd) prd_pool Reg.Prd in
  (* frame slots for spills *)
  let spill_base = f.Func.frame_bytes in
  let slot_tbl : int Reg.Tbl.t = Reg.Tbl.create 8 in
  List.iteri
    (fun k iv -> Reg.Tbl.replace slot_tbl iv.vreg (spill_base + (8 * k)))
    (int_spills @ flt_spills);
  let n_spills = List.length int_spills + List.length flt_spills in
  if n_spills > 0 then set_frame_size f (spill_base + (8 * n_spills));
  (* rewrite registers *)
  let map (r : Reg.t) =
    if r.Reg.phys then None
    else
      let asg =
        match r.Reg.cls with
        | Reg.Int -> Reg.Tbl.find_opt int_asg r
        | Reg.Flt -> Reg.Tbl.find_opt flt_asg r
        | Reg.Prd -> Reg.Tbl.find_opt prd_asg r
        | Reg.Brr -> None
      in
      Option.map (fun id -> Reg.phys id r.Reg.cls) asg
  in
  Func.iter_instrs f (fun i ->
      Instr.substitute_uses map i;
      Instr.substitute_defs map i;
      match i.Instr.attrs.Instr.check_reg with
      | Some r -> (
          match map r with Some r' -> i.Instr.attrs.Instr.check_reg <- Some r' | None -> ())
      | None -> ());
  f.Func.params <-
    List.map (fun p -> match map p with Some p' -> p' | None -> p) f.Func.params;
  (* spill code for anything left virtual *)
  if n_spills > 0 then
    insert_spill_code f (fun r ->
        if r.Reg.phys then None else Reg.Tbl.find_opt slot_tbl r);
  (* stacked-register usage drives the RSE model *)
  let stacked = Hashtbl.create 16 in
  Func.iter_instrs f (fun i ->
      List.iter
        (fun (r : Reg.t) -> if Reg.is_stacked r then Hashtbl.replace stacked r.Reg.id ())
        (Instr.uses i @ Instr.defs i));
  f.Func.n_stacked <- Hashtbl.length stacked;
  (* allocation always rewrites registers (and may insert spill code), so
     the data-sensitive analyses are stale; the CFG is untouched *)
  Cache.invalidate cache
    ~preserve:Cache.[ Dominance; Loops; Callgraph; Points_to ]
    f.Func.name;
  n_spills

let run ?cache (p : Program.t) =
  List.fold_left (fun n f -> n + run_func ?cache f) 0 p.Program.funcs
