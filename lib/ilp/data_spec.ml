(* Data speculation (the paper's Section 2 "future work", implemented here
   as an extension): loads held below may-aliasing stores only because the
   pointer analysis cannot prove independence are converted to ADVANCED
   loads (ld.a).  The scheduler is then free to hoist them above the stores;
   an ALAT check (chk.a) at the original position recovers by reloading when
   a store actually overlapped.

   This is exactly the gap scenario the paper describes: "pointer analysis
   is unable to resolve critical spurious dependences in otherwise highly-
   parallel loops.  A limited initial application ... is providing a 5%
   speedup."  The heuristic is correspondingly conservative: only loads in
   hot blocks whose blocking store dependence comes from unknown or merely
   overlapping tags (never from a provably-equal access) are advanced. *)

open Epic_ir
open Epic_analysis

type params = {
  min_block_weight : float;
  max_advances_per_block : int;
  window : int; (* only consider stores at most this many instrs above *)
}

let default_params = { min_block_weight = 16.0; max_advances_per_block = 8; window = 24 }

(* Stores within [window] instructions above [idx] that may alias [ld] —
   the spurious dependences blocking hoisting. *)
let blocking_stores (instrs : Instr.t array) (idx : int) (window : int) =
  let ld = instrs.(idx) in
  let rec scan k acc =
    if k < 0 || idx - k > window then acc
    else
      let i = instrs.(k) in
      if Instr.is_store i && Memdep.may_alias i ld then scan (k - 1) (i :: acc)
      else if Instr.is_call i then acc (* calls block advancing entirely *)
      else scan (k - 1) acc
  in
  scan (idx - 1) []

(* A store *provably* hitting the same location (identical single-element
   tag) is a real dependence, not a spurious one: do not speculate it. *)
let provably_same (st : Instr.t) (ld : Instr.t) =
  match (st.Instr.attrs.Instr.mem_tag, ld.Instr.attrs.Instr.mem_tag) with
  | Some [ a ], Some [ b ] -> a = b
  | _ -> false

let insert_check (b : Block.t) (ld : Instr.t) =
  match (ld.Instr.op, ld.Instr.dsts, ld.Instr.srcs) with
  | Opcode.Ld (sz, _), [ d ], [ addr ] ->
      let chk =
        Instr.create ?pred:ld.Instr.pred (Opcode.Chka sz)
          ~srcs:[ Operand.Reg d; addr ]
      in
      chk.Instr.attrs.Instr.check_reg <- Some d;
      chk.Instr.attrs.Instr.mem_tag <- ld.Instr.attrs.Instr.mem_tag;
      let rec ins = function
        | [] -> [ chk ]
        | i :: tl when i == ld -> i :: chk :: tl
        | i :: tl -> i :: ins tl
      in
      b.Block.instrs <- ins b.Block.instrs
  | _ -> ()

(* Returns the number of loads advanced in [b]. *)
let run_block (ps : params) (b : Block.t) =
  if b.Block.weight < ps.min_block_weight then 0
  else begin
    let instrs = Array.of_list b.Block.instrs in
    let advanced = ref [] in
    Array.iteri
      (fun idx (i : Instr.t) ->
        match i.Instr.op with
        | Opcode.Ld (sz, Opcode.Nonspec)
          when List.length !advanced < ps.max_advances_per_block ->
            let blockers = blocking_stores instrs idx ps.window in
            if
              blockers <> []
              && not (List.exists (fun s -> provably_same s i) blockers)
              (* the address must not be defined by one of the blockers'
                 aliasing chain; register RAW already covers ordering of the
                 address computation *)
            then begin
              i.Instr.op <- Opcode.Ld (sz, Opcode.Spec_advanced);
              i.Instr.attrs.Instr.speculated <- true;
              advanced := i :: !advanced
            end
        | _ -> ())
      instrs;
    (* insert the checks after the scan so indices stay stable *)
    List.iter (insert_check b) (List.rev !advanced);
    List.length !advanced
  end

(* Returns the number of loads advanced; the function was mutated when it is
   non-zero (each check comes with an advanced load). *)
let run_func ?(params = default_params) (f : Func.t) =
  List.fold_left (fun n b -> n + run_block params b) 0 f.Func.blocks

let run ?(params = default_params) (p : Program.t) =
  List.fold_left (fun n f -> n + run_func ~params f) 0 p.Program.funcs
