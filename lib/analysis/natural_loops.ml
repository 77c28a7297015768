(* Natural-loop detection from back edges in the dominator tree, plus the
   profile-derived statistics (average trip count) that drive the loop
   peeling and unrolling heuristics of Sections 2.4 and 3.2. *)

open Epic_ir

type loop = {
  header : string;
  body : string list; (* includes the header *)
  back_edges : string list; (* sources of latch edges *)
  mutable avg_trips : float; (* from profile; 0 when no profile *)
}

type t = { loops : loop list }

let compute ?dom (f : Func.t) =
  let dom = match dom with Some d -> d | None -> Dominance.compute f in
  let back_edges = ref [] in
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          if Dominance.dominates dom s b.Block.label then
            back_edges := (b.Block.label, s) :: !back_edges)
        (Func.successors f b))
    f.Func.blocks;
  (* Group back edges by header and flood backwards from each latch. *)
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (latch, header) ->
      let existing =
        match Hashtbl.find_opt by_header header with Some l -> l | None -> []
      in
      Hashtbl.replace by_header header (latch :: existing))
    !back_edges;
  let preds = Func.predecessors f in
  let loops =
    Hashtbl.fold
      (fun header latches acc ->
        let body = Hashtbl.create 8 in
        Hashtbl.replace body header ();
        let rec flood label =
          if not (Hashtbl.mem body label) then begin
            Hashtbl.replace body label ();
            match Hashtbl.find_opt preds label with
            | Some ps -> List.iter flood ps
            | None -> ()
          end
        in
        List.iter flood latches;
        {
          header;
          body = Hashtbl.fold (fun l () bs -> l :: bs) body [];
          back_edges = latches;
          avg_trips = 0.;
        }
        :: acc)
      by_header []
  in
  (* Fill in average trip counts from profile weights: iterations per entry =
     header weight / (header weight - latch weights) when well-formed. *)
  List.iter
    (fun l ->
      match Func.find_block f l.header with
      | None -> ()
      | Some hb ->
          let header_w = hb.Block.weight in
          let latch_w =
            List.fold_left
              (fun acc latch ->
                match Func.find_block f latch with
                | Some lb ->
                    (* weight of the edge latch->header; approximate with the
                       latch block weight scaled by its branch probability
                       when the latch ends in a conditional branch to the
                       header *)
                    let edge_w =
                      List.fold_left
                        (fun w (i : Instr.t) ->
                          match Instr.branch_target i with
                          | Some t when t = l.header ->
                              let prob =
                                if i.Instr.pred = None then 1.0
                                else i.Instr.attrs.Instr.taken_prob
                              in
                              w +. (i.Instr.attrs.Instr.weight *. prob)
                          | _ -> w)
                        0. lb.Block.instrs
                    in
                    let edge_w =
                      if edge_w > 0. then edge_w
                      else if
                        (* fall-through latch *)
                        Func.successors f lb = [ l.header ]
                      then lb.Block.weight
                      else 0.
                    in
                    acc +. edge_w
                | None -> acc)
              0. l.back_edges
          in
          let entries = header_w -. latch_w in
          if entries > 0.5 then l.avg_trips <- header_w /. entries)
    loops;
  { loops }

(* Structural equality of two loop forests over the same function: the same
   loops (header, body sets, latch sets) and the same profiled trip counts.
   Used by the analysis cache's debug self-check. *)
let equal a b =
  let norm t =
    List.sort compare
      (List.map
         (fun l ->
           ( l.header,
             List.sort compare l.body,
             List.sort compare l.back_edges,
             l.avg_trips ))
         t.loops)
  in
  norm a = norm b

let innermost_first t =
  List.sort (fun a b -> compare (List.length a.body) (List.length b.body)) t.loops

let in_loop l label = List.mem label l.body

(* Blocks outside the loop that the loop can exit to. *)
let exits (f : Func.t) l =
  List.concat_map
    (fun label ->
      match Func.find_block f label with
      | Some b -> List.filter (fun s -> not (in_loop l s)) (Func.successors f b)
      | None -> [])
    l.body
  |> List.sort_uniq compare
