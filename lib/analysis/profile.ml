(* Control-flow profiling (Figure 4's "control flow profiling" phase): run
   the program under the high-level interpreter on a training input and
   annotate the IR in place — block entry counts, branch execution counts and
   taken probabilities, and per-site indirect call target histograms used by
   indirect call specialization. *)

open Epic_ir

type t = {
  block_counts : (string * string, float) Hashtbl.t; (* (func, label) -> count *)
  branch_exec : (int, float) Hashtbl.t; (* instr id -> executions *)
  branch_taken : (int, float) Hashtbl.t; (* instr id -> taken count *)
  indirect_targets : (int, (string, float) Hashtbl.t) Hashtbl.t;
}

let create () =
  {
    block_counts = Hashtbl.create 256;
    branch_exec = Hashtbl.create 256;
    branch_taken = Hashtbl.create 256;
    indirect_targets = Hashtbl.create 16;
  }

let bump tbl key by =
  let cur = match Hashtbl.find_opt tbl key with Some c -> c | None -> 0. in
  Hashtbl.replace tbl key (cur +. by)

(* Run the program on [input] and fold the interpreter's dense counts into
   the keyed tables, summing where keys repeat (blocks of equally named
   functions, instructions sharing an id).  Returns the profile and the
   program's (exit code, output) for sanity checking. *)
let collect (p : Program.t) (input : int64 array) =
  let prof = create () in
  let code, out, st = Interp.run ~profile:true p input in
  Interp.iter_block_counts st (fun f b n ->
      bump prof.block_counts (f.Func.name, b.Block.label) (float n));
  Interp.iter_branch_counts st (fun i ~exec ~taken ->
      bump prof.branch_exec i.Instr.id (float exec);
      if taken > 0 then bump prof.branch_taken i.Instr.id (float taken));
  Interp.iter_indirect_counts st (fun i callee n ->
      let tbl =
        match Hashtbl.find_opt prof.indirect_targets i.Instr.id with
        | Some t -> t
        | None ->
            let t = Hashtbl.create 4 in
            Hashtbl.replace prof.indirect_targets i.Instr.id t;
            t
      in
      bump tbl callee (float n));
  (prof, code, out)

(* Write the collected counts into the IR's weight/probability attributes. *)
let annotate (p : Program.t) (prof : t) =
  List.iter
    (fun (f : Func.t) ->
      List.iter
        (fun (b : Block.t) ->
          let w =
            match Hashtbl.find_opt prof.block_counts (f.Func.name, b.Block.label) with
            | Some c -> c
            | None -> 0.
          in
          b.Block.weight <- w;
          List.iter
            (fun (i : Instr.t) ->
              i.Instr.attrs.Instr.weight <- w;
              if i.Instr.op = Opcode.Br then begin
                let e =
                  match Hashtbl.find_opt prof.branch_exec i.Instr.id with
                  | Some c -> c
                  | None -> 0.
                in
                let t =
                  match Hashtbl.find_opt prof.branch_taken i.Instr.id with
                  | Some c -> c
                  | None -> 0.
                in
                i.Instr.attrs.Instr.weight <- e;
                i.Instr.attrs.Instr.taken_prob <- (if e > 0. then t /. e else 0.)
              end)
            b.Block.instrs)
        f.Func.blocks)
    p.Program.funcs

(* One-step convenience: profile on [input] and annotate. *)
let profile_and_annotate (p : Program.t) (input : int64 array) =
  let prof, _, _ = collect p input in
  annotate p prof;
  prof

(* Dominant target of an indirect call site: [Some (callee, fraction)] when
   one target receives at least [threshold] of the calls. *)
let dominant_target (prof : t) (site : int) ~threshold =
  match Hashtbl.find_opt prof.indirect_targets site with
  | None -> None
  | Some tbl ->
      let total = Hashtbl.fold (fun _ c acc -> acc +. c) tbl 0. in
      if total <= 0. then None
      else
        let best, best_c =
          Hashtbl.fold
            (fun f c ((_, bc) as acc) -> if c > bc then (f, c) else acc)
            tbl ("", 0.)
        in
        if best_c /. total >= threshold then Some (best, best_c /. total)
        else None

(* After structural transformation the CFG changes; weights are re-derived by
   rerunning the profile.  For the copies created by duplication we fall back
   on scaling the origin instruction's weight; this helper re-annotates a
   transformed program from a fresh run. *)
let reprofile (p : Program.t) (input : int64 array) =
  ignore (profile_and_annotate p input)
