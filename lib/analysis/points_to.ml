(* Interprocedural, flow-insensitive, context-insensitive points-to analysis
   in the style of Andersen, standing in for IMPACT's access-path based
   interprocedural pointer analysis [Cheng & Hwu, PLDI'00].  Its results are
   written onto every load and store as an abstract-location set ([mem_tag]),
   which the memory-dependence layer, LICM and the scheduler consult to
   break spurious dependences (Section 2.2, "False dependences").

   Abstract locations: one per global, one per function stack frame, one per
   malloc site.  Pointers may flow through integer arithmetic and through
   memory; values that reach an address position without any pointer source
   (e.g. pointer/integer unions filled from input data) end up with an empty
   set and are tagged unknown — exactly the loads that, once speculated,
   become the paper's "wild loads". *)

open Epic_ir

module Int_set = Set.Make (Int)

type loc = Lglobal of string | Lframe of string | Lheap of int

type node = Nreg of string * Reg.t | Nloc of loc

type t = {
  loc_of_id : (int, loc) Hashtbl.t;
  id_of_node : (node, int) Hashtbl.t;
  pts : (int, Int_set.t) Hashtbl.t;
  enabled : bool;
}

let node_id t node =
  match Hashtbl.find_opt t.id_of_node node with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.id_of_node in
      Hashtbl.replace t.id_of_node node i;
      (match node with Nloc l -> Hashtbl.replace t.loc_of_id i l | Nreg _ -> ());
      i

let get_pts t id =
  match Hashtbl.find_opt t.pts id with Some s -> s | None -> Int_set.empty

(* Solver state: copy edges and complex (deref) constraints, processed with a
   simple fixed-point worklist. *)
type solver = {
  an : t;
  copy_edges : (int, int list) Hashtbl.t; (* src -> dsts *)
  mutable load_cs : (int * int) list; (* (dst, addr): dst >= *addr *)
  mutable store_cs : (int * int) list; (* (addr, src): *addr >= src *)
}

let add_copy sv ~src ~dst =
  if src <> dst then
    let cur = match Hashtbl.find_opt sv.copy_edges src with Some l -> l | None -> [] in
    if not (List.mem dst cur) then Hashtbl.replace sv.copy_edges src (dst :: cur)

let add_base sv id loc =
  let lid = node_id sv.an (Nloc loc) in
  let cur = get_pts sv.an id in
  Hashtbl.replace sv.an.pts id (Int_set.add lid cur)

(* Generate constraints for one function. *)
let gen_constraints sv (p : Program.t) (f : Func.t) =
  let an = sv.an in
  let fname = f.Func.name in
  let rid (r : Reg.t) = node_id an (Nreg (fname, r)) in
  let operand_node (o : Operand.t) =
    match o with Operand.Reg r -> Some (rid r) | _ -> None
  in
  Func.iter_instrs f (fun (i : Instr.t) ->
      match i.Instr.op with
      | Opcode.Lea -> (
          match (i.Instr.dsts, i.Instr.srcs) with
          | [ d ], Operand.Sym s :: _ ->
              if Program.find_global p s <> None then add_base sv (rid d) (Lglobal s)
              (* function addresses carry no data locations *)
          | _ -> ())
      | Opcode.Mov | Opcode.Sxt _ -> (
          match (i.Instr.dsts, i.Instr.srcs) with
          | [ d ], [ s ] -> (
              match operand_node s with
              | Some sn -> add_copy sv ~src:sn ~dst:(rid d)
              | None -> ())
          | _ -> ())
      | Opcode.Add | Opcode.Sub -> (
          match (i.Instr.dsts, i.Instr.srcs) with
          | [ d ], [ a; b ] ->
              (* sp-relative addresses name this function's frame *)
              let handle (o : Operand.t) =
                match o with
                | Operand.Reg r when Reg.equal r Reg.sp -> add_base sv (rid d) (Lframe fname)
                | Operand.Reg r -> add_copy sv ~src:(rid r) ~dst:(rid d)
                | _ -> ()
              in
              handle a;
              handle b
          | _ -> ())
      | Opcode.Ld (_, _) -> (
          match (i.Instr.dsts, i.Instr.srcs) with
          | [ d ], [ Operand.Reg a ] -> sv.load_cs <- (rid d, rid a) :: sv.load_cs
          | _ -> ())
      | Opcode.St _ -> (
          match i.Instr.srcs with
          | [ Operand.Reg a; Operand.Reg v ] ->
              sv.store_cs <- (rid a, rid v) :: sv.store_cs
          | [ Operand.Reg _; _ ] -> () (* storing a constant *)
          | _ -> ())
      | Opcode.Br_call -> (
          match i.Instr.srcs with
          | Operand.Sym callee :: args -> (
              match Intrinsics.of_name callee with
              | Some Intrinsics.Malloc -> (
                  match i.Instr.dsts with
                  | [ d ] -> add_base sv (rid d) (Lheap i.Instr.id)
                  | _ -> ())
              | Some Intrinsics.Memcpy -> (
                  (* *dst >= *src: model as load through src into a fresh
                     temp, then store through dst *)
                  match args with
                  | Operand.Reg dst :: Operand.Reg src :: _ ->
                      let tmp = node_id an (Nreg (fname, Reg.virt (-i.Instr.id) Reg.Int)) in
                      sv.load_cs <- (tmp, rid src) :: sv.load_cs;
                      sv.store_cs <- (rid dst, tmp) :: sv.store_cs
                  | _ -> ())
              | Some _ -> ()
              | None -> (
                  match Program.find_func p callee with
                  | Some cf ->
                      List.iteri
                        (fun n (a : Operand.t) ->
                          match (operand_node a, List.nth_opt cf.Func.params n) with
                          | Some an', Some pr ->
                              add_copy sv ~src:an' ~dst:(node_id an (Nreg (callee, pr)))
                          | _ -> ())
                        args;
                      (* return values: connect every return site *)
                      List.iteri
                        (fun n (d : Reg.t) ->
                          Func.iter_instrs cf (fun ri ->
                              match ri.Instr.op with
                              | Opcode.Br_ret -> (
                                  match List.nth_opt ri.Instr.srcs n with
                                  | Some (Operand.Reg rr) ->
                                      add_copy sv ~src:(node_id an (Nreg (callee, rr)))
                                        ~dst:(rid d)
                                  | _ -> ())
                              | _ -> ()))
                        i.Instr.dsts
                  | None -> ()))
          | Operand.Reg _ :: args ->
              (* Indirect call: conservatively connect arguments to the
                 parameters of every address-taken function. *)
              List.iter
                (fun callee ->
                  match Program.find_func p callee with
                  | Some cf ->
                      List.iteri
                        (fun n (a : Operand.t) ->
                          match (operand_node a, List.nth_opt cf.Func.params n) with
                          | Some an', Some pr ->
                              add_copy sv ~src:an' ~dst:(node_id an (Nreg (callee, pr)))
                          | _ -> ())
                        args
                  | None -> ())
                (Callgraph.address_taken_funcs p)
          | ((Operand.Imm _ | Operand.Fimm _ | Operand.Label _) :: _ | []) -> ())
      | _ -> ())

let solve sv =
  let an = sv.an in
  let changed = ref true in
  let propagate_copy () =
    Hashtbl.iter
      (fun src dsts ->
        let s = get_pts an src in
        List.iter
          (fun d ->
            let old = get_pts an d in
            let nw = Int_set.union old s in
            if not (Int_set.equal old nw) then begin
              Hashtbl.replace an.pts d nw;
              changed := true
            end)
          dsts)
      sv.copy_edges
  in
  let contents_id loc_id =
    (* contents of a location are modelled as the pts set of the loc node *)
    loc_id
  in
  while !changed do
    changed := false;
    propagate_copy ();
    List.iter
      (fun (dst, addr) ->
        Int_set.iter
          (fun l ->
            let s = get_pts an (contents_id l) in
            let old = get_pts an dst in
            let nw = Int_set.union old s in
            if not (Int_set.equal old nw) then begin
              Hashtbl.replace an.pts dst nw;
              changed := true
            end)
          (get_pts an addr))
      sv.load_cs;
    List.iter
      (fun (addr, src) ->
        Int_set.iter
          (fun l ->
            let s = get_pts an src in
            let old = get_pts an (contents_id l) in
            let nw = Int_set.union old s in
            if not (Int_set.equal old nw) then begin
              Hashtbl.replace an.pts (contents_id l) nw;
              changed := true
            end)
          (get_pts an addr))
      sv.store_cs
  done

(* Annotate every memory instruction with the abstract locations its address
   may reference.  An empty set means the analysis saw no pointer source:
   tagged unknown ([None]) for conservative dependence treatment. *)
let annotate_program t (p : Program.t) =
  List.iter
    (fun (f : Func.t) ->
      Func.iter_instrs f (fun (i : Instr.t) ->
          let addr_operand =
            match i.Instr.op with
            | Opcode.Ld (_, _) -> (
                match i.Instr.srcs with [ a ] -> Some a | _ -> None)
            | Opcode.St _ -> (
                match i.Instr.srcs with a :: _ -> Some a | _ -> None)
            | _ -> None
          in
          match addr_operand with
          | Some (Operand.Reg r) -> (
              match Hashtbl.find_opt t.id_of_node (Nreg (f.Func.name, r)) with
              | Some id ->
                  let s = get_pts t id in
                  if Int_set.is_empty s then i.Instr.attrs.Instr.mem_tag <- None
                  else
                    i.Instr.attrs.Instr.mem_tag <-
                      Some (Int_set.elements s)
              | None -> i.Instr.attrs.Instr.mem_tag <- None)
          | Some (Operand.Imm _) ->
              (* constant address: unknown provenance *)
              i.Instr.attrs.Instr.mem_tag <- None
          | Some _ | None -> ()))
    p.Program.funcs

(* Run the analysis over the whole program and annotate it.  When [enabled]
   is false (the paper disables pointer analysis for eon and perlbmk), all
   memory tags are cleared to unknown instead. *)
let analyze ?(enabled = true) (p : Program.t) =
  if not enabled then begin
    Program.iter_instrs p (fun i ->
        if Instr.is_mem i then i.Instr.attrs.Instr.mem_tag <- None);
    {
      loc_of_id = Hashtbl.create 1;
      id_of_node = Hashtbl.create 1;
      pts = Hashtbl.create 1;
      enabled = false;
    }
  end
  else begin
    let an =
      {
        loc_of_id = Hashtbl.create 64;
        id_of_node = Hashtbl.create 256;
        pts = Hashtbl.create 256;
        enabled = true;
      }
    in
    let sv = { an; copy_edges = Hashtbl.create 256; load_cs = []; store_cs = [] } in
    List.iter (gen_constraints sv p) p.Program.funcs;
    solve sv;
    annotate_program an p;
    an
  end
