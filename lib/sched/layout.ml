(* Final code layout: issue groups are packed into IA-64 bundles (16 bytes
   each) and every bundle gets an address, functions laid out sequentially,
   blocks in layout order with cold blocks sunk to the end of each function.
   The simulator's front end fetches through these addresses, which is what
   makes instruction-cache footprint — and the paper's crafty/twolf
   thrashing observations — measurable. *)

open Epic_ir
open Epic_mach

type group = {
  instrs : Instr.t list;
  bundles : Bundle.t list;
  addr : int64; (* address of the first bundle *)
  n_bundles : int;
  n_nops : int;
}

type block_layout = {
  label : string;
  groups : group array;
}

type t = {
  by_block : (string * string, block_layout) Hashtbl.t; (* (func, label) *)
  mutable code_bytes : int;
  mutable total_bundles : int;
  mutable total_nops : int;
}

(* Group a scheduled block's instructions by issue cycle (they are already
   sorted by cycle). *)
let groups_of_block (b : Block.t) =
  let rec go acc cur cur_cycle = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | (i : Instr.t) :: tl ->
        if i.Instr.cycle = cur_cycle || cur = [] then
          go acc (i :: cur) i.Instr.cycle tl
        else go (List.rev cur :: acc) [ i ] i.Instr.cycle tl
  in
  go [] [] (-1) b.Block.instrs

(* Sink cold blocks to the end of the function, keeping control explicit. *)
let sink_cold_blocks (f : Func.t) =
  ignore (Epic_opt.Jumpopt.materialize_fallthroughs f);
  Func.layout_cold_last f;
  ignore (Epic_opt.Jumpopt.remove_fallthrough_branches f)

let build ~desc (p : Program.t) =
  let t =
    { by_block = Hashtbl.create 256; code_bytes = 0; total_bundles = 0; total_nops = 0 }
  in
  let addr = ref Program.code_base in
  List.iter
    (fun (f : Func.t) ->
      List.iter
        (fun (b : Block.t) ->
          let group_instrs = groups_of_block b in
          let bundles, ranges = Bundle.pack_block group_instrs in
          let base = !addr in
          List.iter
            (fun (bu : Bundle.t) ->
              bu.Bundle.address <- !addr;
              addr := Int64.add !addr Bundle.bundle_bytes)
            bundles;
          let bundle_arr = Array.of_list bundles in
          t.total_bundles <- t.total_bundles + Array.length bundle_arr;
          Array.iter
            (fun bu -> t.total_nops <- t.total_nops + Bundle.nop_count bu)
            bundle_arr;
          (* nop retire attribution: a bundle's nops belong to the first
             group that occupies it *)
          let nop_owner = Array.make (Array.length bundle_arr) (-1) in
          List.iteri
            (fun gi (first, last) ->
              for k = first to min last (Array.length bundle_arr - 1) do
                if nop_owner.(k) < 0 then nop_owner.(k) <- gi
              done)
            ranges;
          let groups =
            List.mapi
              (fun gi (instrs, (first, last)) ->
                let last = min last (Array.length bundle_arr - 1) in
                let n_nops = ref 0 in
                Array.iteri
                  (fun k bu ->
                    if nop_owner.(k) = gi then n_nops := !n_nops + Bundle.nop_count bu)
                  bundle_arr;
                {
                  instrs;
                  bundles =
                    (if Array.length bundle_arr = 0 then []
                     else Array.to_list (Array.sub bundle_arr first (last - first + 1)));
                  addr = Int64.add base (Int64.mul (Int64.of_int first) Bundle.bundle_bytes);
                  n_bundles = (if Array.length bundle_arr = 0 then 0 else last - first + 1);
                  n_nops = !n_nops;
                })
              (List.combine group_instrs ranges)
          in
          Hashtbl.replace t.by_block (f.Func.name, b.Block.label)
            { label = b.Block.label; groups = Array.of_list groups })
        f.Func.blocks;
      (* pad between functions to a cache-line boundary *)
      let line = Int64.of_int (Itanium.l1i_line desc) in
      let rem = Int64.rem !addr line in
      if not (Int64.equal rem 0L) then addr := Int64.add !addr (Int64.sub line rem))
    p.Program.funcs;
  t.code_bytes <- Int64.to_int (Int64.sub !addr Program.code_base);
  t

let block_layout t fname label = Hashtbl.find_opt t.by_block (fname, label)

(* Static code size in bundles (the paper's code-growth metric is static
   size; ours is measured post-scheduling, nops included). *)
let static_bundles t = t.total_bundles
