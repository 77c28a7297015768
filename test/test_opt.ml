(* Classical-optimizer tests: per-pass unit behaviour plus semantic
   preservation (differential against the interpreter). *)

open Epic_ir

let check = Alcotest.check
let ci = Alcotest.int
let cs = Alcotest.string
let cb = Alcotest.bool

let run p input =
  let code, out, _ = Interp.run p input in
  (code, out)

(* Compile, apply [passes], and require identical observable behaviour. *)
let preserves ?(input = [||]) src passes =
  let p = Epic_frontend.Lower.compile_source src in
  let before = run p input in
  passes p;
  Verify.check_program p;
  let after = run p input in
  check (Alcotest.pair ci cs) "semantics preserved" before after;
  p

let branchy_src =
  {|
int g[32];
int f(int x) {
  int s; int i;
  s = x * 0 + 3 * 1;
  for (i = 0; i < 16; i = i + 1) {
    if (g[i] > 2) { s = s + g[i] * 4; } else { s = s - 1; }
  }
  return s + 0;
}
int main() {
  int i;
  for (i = 0; i < 32; i = i + 1) { g[i] = i % 7; }
  print_int(f(5));
  print_int(f(9));
  return 0;
}
|}

let test_constfold_folds () =
  let p =
    preserves "int main() { int x; x = 2 + 3; print_int(x * 4); return 0; }"
      (fun p -> ignore (Epic_opt.Constfold.run p))
  in
  (* after folding + a cleanup, the multiply by constant result is direct *)
  ignore p

let test_constfold_identities () =
  let p = Epic_frontend.Lower.compile_source "int main() { int x; x = input(0); print_int(x * 1 + 0); return 0; }" in
  ignore (Epic_opt.Constfold.run p);
  let muls = Program.instr_count p in
  ignore (Epic_opt.Copyprop.run p);
  ignore (Epic_opt.Dce.run p);
  check cb "identity ops removed" true (Program.instr_count p <= muls);
  let _, out, _ = Interp.run p [| 7L |] in
  check cs "value" "7" (String.trim out)

let test_strength_mul_to_shift () =
  let p = Epic_frontend.Lower.compile_source "int main() { print_int(input(0) * 8); return 0; }" in
  ignore (Epic_opt.Strength.run p);
  let has_shl = ref false and has_mul = ref false in
  Program.iter_instrs p (fun i ->
      match i.Instr.op with
      | Opcode.Shl -> has_shl := true
      | Opcode.Mul -> has_mul := true
      | _ -> ());
  check cb "mul by 8 became shift" true !has_shl;
  check cb "no mul remains" false !has_mul;
  let _, out, _ = Interp.run p [| 5L |] in
  check cs "value" "40" (String.trim out)

let test_dce_removes_dead () =
  let p =
    Epic_frontend.Lower.compile_source
      "int main() { int a; int b; a = 1; b = a + 2; a = 5; print_int(a); return 0; }"
  in
  let before = Program.instr_count p in
  ignore (Epic_opt.Dce.run p);
  check cb "dead code removed" true (Program.instr_count p < before);
  let _, out, _ = Interp.run p [||] in
  check cs "value" "5" (String.trim out)

let test_dce_keeps_stores_and_calls () =
  let p =
    Epic_frontend.Lower.compile_source
      "int g;\nint main() { g = 9; print_int(g); return 0; }"
  in
  ignore (Epic_opt.Dce.run p);
  let stores = ref 0 and calls = ref 0 in
  Program.iter_instrs p (fun i ->
      if Instr.is_store i then incr stores;
      if Instr.is_call i then incr calls);
  check cb "store kept" true (!stores >= 1);
  check cb "call kept" true (!calls >= 1)

let test_cse_reuses_expressions () =
  let p =
    Epic_frontend.Lower.compile_source
      "int main() { int a; int x; int y; a = input(0); x = a * 3 + 1; y = a * 3 + 1; print_int(x + y); return 0; }"
  in
  let muls p =
    let n = ref 0 in
    Program.iter_instrs p (fun i -> if i.Instr.op = Opcode.Mul then incr n);
    !n
  in
  let before = muls p in
  ignore (Epic_opt.Local_cse.run p);
  ignore (Epic_opt.Copyprop.run p);
  ignore (Epic_opt.Dce.run p);
  check cb "one multiply eliminated" true (muls p < before);
  let _, out, _ = Interp.run p [| 4L |] in
  check cs "value" "26" (String.trim out)

let test_cse_respects_stores () =
  (* a store between two identical loads kills availability *)
  let p =
    preserves ~input:[||]
      {|
int g;
int main() {
  int a; int b;
  g = 1;
  a = g;
  g = 2;
  b = g;
  print_int(a + b);
  return 0;
}
|}
      (fun p ->
        ignore (Epic_opt.Local_cse.run p);
        ignore (Epic_opt.Copyprop.run p);
        ignore (Epic_opt.Dce.run p))
  in
  ignore p

let test_jumpopt_collapses_chains () =
  let p = Epic_frontend.Lower.compile_source branchy_src in
  let before = List.length (Program.find_func_exn p "main").Func.blocks in
  ignore (Epic_opt.Jumpopt.run p);
  let after = List.length (Program.find_func_exn p "main").Func.blocks in
  check cb "blocks merged" true (after <= before);
  Verify.check_program p

let test_classical_pipeline_semantics () =
  ignore
    (preserves ~input:[| 3L |] branchy_src (fun p ->
         ignore (Epic_analysis.Profile.profile_and_annotate p [| 3L |]);
         ignore (Epic_analysis.Points_to.analyze p);
         ignore (Epic_opt.Pipeline.run_classical_pm (Epic_opt.Pipeline.manager p) ~name:"classical")))

let test_licm_hoists () =
  let src =
    {|
int g;
int main() {
  int i; int s; int k;
  k = input(0);
  s = 0;
  for (i = 0; i < 100; i = i + 1) {
    s = s + k * 3 + i;
  }
  print_int(s);
  return 0;
}
|}
  in
  let p = Epic_frontend.Lower.compile_source src in
  let before = run p [| 2L |] in
  ignore (Epic_analysis.Profile.profile_and_annotate p [| 2L |]);
  ignore (Epic_opt.Pipeline.run_classical_pm (Epic_opt.Pipeline.manager p) ~name:"classical");
  let after = run p [| 2L |] in
  check (Alcotest.pair ci cs) "LICM preserves semantics" before after

let test_inline_leaf () =
  let src =
    {|
int sq(int x) { return x * x; }
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 50; i = i + 1) { s = s + sq(i); }
  print_int(s);
  return 0;
}
|}
  in
  let p = Epic_frontend.Lower.compile_source src in
  let before = run p [||] in
  ignore (Epic_analysis.Profile.profile_and_annotate p [||]);
  let n = Epic_opt.Inline.run p in
  check cb "hot leaf inlined" true (n >= 1);
  Verify.check_program p;
  check (Alcotest.pair ci cs) "inline preserves semantics" before (run p [||])

let test_inline_skips_recursive () =
  let src =
    "int f(int n) { if (n < 1) { return 0; } return 1 + f(n - 1); }\n\
     int main() { print_int(f(20)); return 0; }"
  in
  let p = Epic_frontend.Lower.compile_source src in
  ignore (Epic_analysis.Profile.profile_and_annotate p [||]);
  let n = Epic_opt.Inline.run p in
  check ci "recursive callsite not inlined" 0 n

let test_inline_budget_zero () =
  let src =
    "int sq(int x) { return x * x; }\nint main() { print_int(sq(input(0))); return 0; }"
  in
  let p = Epic_frontend.Lower.compile_source src in
  ignore (Epic_analysis.Profile.profile_and_annotate p [| 4L |]);
  let n = Epic_opt.Inline.run ~budget:1.0 p in
  check ci "budget 1.0 inlines nothing" 0 n

let test_indirect_specialization () =
  let src =
    {|
int a(int x) { return x + 1; }
int b(int x) { return x + 2; }
int main() {
  int f; int i; int s;
  s = 0;
  for (i = 0; i < 20; i = i + 1) {
    if (i == 19) { f = (int) &b; } else { f = (int) &a; }
    s = s + (f)(i);
  }
  print_int(s);
  return 0;
}
|}
  in
  let p = Epic_frontend.Lower.compile_source src in
  let before = run p [||] in
  let prof, _, _ = Epic_analysis.Profile.collect p [||] in
  Epic_analysis.Profile.annotate p prof;
  let n = Epic_opt.Indirect_call.run p prof in
  check ci "one site specialized" 1 n;
  Verify.check_program p;
  check (Alcotest.pair ci cs) "specialization preserves semantics" before (run p [||]);
  (* the dominant callee is now reachable through a direct call *)
  let direct = ref false in
  Program.iter_instrs p (fun i -> if Instr.callee i = Some "a" then direct := true);
  check cb "direct call to dominant target" true !direct

(* --- local CSE keys expressions structurally ------------------------------ *)

(* Keys built from printed operands ([%g]) once merged [x * 0.1] with
   [x * 0.1000001]: the GCC-level binary printed the first product twice,
   and the O-NS compile's reprofile caught the diverged train run. *)
let float_cse_src =
  {|
int main() {
  float x;
  x = (float) input(0);
  print_int((int) (x * 0.1 * 100000000.0));
  print_int((int) (x * 0.1000001 * 100000000.0));
  return 0;
}
|}

let test_cse_float_immediates () =
  let input = [| 5L |] in
  let reference = run (Epic_frontend.Lower.compile_source float_cse_src) input in
  check cs "frontend IR" "50000000\n50000049\n" (snd reference);
  List.iter
    (fun (name, config) ->
      let c = Epic_core.Driver.compile ~config ~train:input float_cse_src in
      let code, out, _ = Epic_core.Driver.run c input in
      check (Alcotest.pair ci cs) name reference (code, out))
    [ ("gcc", Epic_core.Config.gcc_like); ("o-ns", Epic_core.Config.o_ns) ]

(* Sources that print alike but differ ([Imm 1] / [Fimm 1.], [0.1] /
   [0.1000001], [0.] / [-0.]) keep apart; identical expressions merge. *)
let test_cse_structural_keys () =
  Instr.reset_ids ();
  let f = Func.create "f" [] in
  let bld = Builder.create f in
  let b = Builder.start_block bld "entry" in
  let x = Builder.fresh_int bld and y = Builder.fresh bld Reg.Flt in
  let op (o : Opcode.t) src imm =
    let d = Builder.fresh bld (match src with Operand.Reg r -> r.Reg.cls | _ -> Reg.Int) in
    Builder.binop bld o d src imm;
    d
  in
  let a1 = op Opcode.Add (Operand.Reg x) (Operand.Imm 1L) in
  ignore (op Opcode.Add (Operand.Reg x) (Operand.Fimm 1.));
  ignore (op Opcode.Fmul (Operand.Reg y) (Operand.Fimm 0.1));
  let f2 = op Opcode.Fmul (Operand.Reg y) (Operand.Fimm 0.1000001) in
  ignore (op Opcode.Fadd (Operand.Reg y) (Operand.Fimm 0.));
  ignore (op Opcode.Fadd (Operand.Reg y) (Operand.Fimm (-0.)));
  ignore (op Opcode.Add (Operand.Reg x) (Operand.Imm 1L));
  ignore (op Opcode.Fmul (Operand.Reg y) (Operand.Fimm 0.1000001));
  Builder.ret bld [];
  check cb "changed" true (Epic_opt.Local_cse.run_func f);
  let shape (i : Instr.t) =
    match (i.Instr.op, i.Instr.srcs) with
    | Opcode.Mov, [ Operand.Reg r ] when Reg.equal r a1 -> "mov a1"
    | Opcode.Mov, [ Operand.Reg r ] when Reg.equal r f2 -> "mov f2"
    | Opcode.Mov, _ -> "mov ?"
    | _ -> "kept"
  in
  check (Alcotest.list cs) "value numbers"
    [ "kept"; "kept"; "kept"; "kept"; "kept"; "kept"; "mov a1"; "mov f2"; "kept" ]
    (List.map shape b.Block.instrs)

(* --- one-walk DCE computes the iterated per-instruction fixed point ------- *)

(* The reference algorithm: under a fresh liveness, drop every instruction
   whose definitions are dead after it ([Liveness.per_instr] gives the
   live-before sets), and repeat until nothing changes. *)
let dce_oracle (p : Program.t) =
  let open Epic_analysis in
  List.iter
    (fun (f : Func.t) ->
      let rec round () =
        let live = Liveness.compute f in
        let changed = ref false in
        List.iter
          (fun (b : Block.t) ->
            let afters =
              match Liveness.per_instr live f b with
              | [] -> []
              | _ :: tl -> tl @ [ Liveness.live_out live b.Block.label ]
            in
            let kept =
              List.filter_map
                (fun (i, after) -> if Epic_opt.Dce.needed i after then Some i else None)
                (List.combine b.Block.instrs afters)
            in
            if List.compare_lengths kept b.Block.instrs <> 0 then begin
              b.Block.instrs <- kept;
              changed := true
            end)
          f.Func.blocks;
        if !changed then round ()
      in
      round ())
    p.Program.funcs

(* DCE and the oracle leave the same IR text, on [p] as given and again
   after the straight-line cleanups have exposed more dead code; returns the
   instructions DCE removed. *)
let dce_matches_oracle name (p : Program.t) =
  let compare_at stage =
    let q = Program.copy p in
    let before = Program.instr_count p in
    ignore (Epic_opt.Dce.run p);
    dce_oracle q;
    check cs (name ^ stage) (Fmt.str "%a" Program.pp q) (Fmt.str "%a" Program.pp p);
    before - Program.instr_count p
  in
  let removed = compare_at "" in
  ignore (Epic_opt.Constfold.run p);
  ignore (Epic_opt.Copyprop.run p);
  ignore (Epic_opt.Strength.run p);
  ignore (Epic_opt.Local_cse.run p);
  removed + compare_at " after cleanups"

let test_dce_oracle_suite () =
  let removed =
    List.fold_left
      (fun acc (w : Epic_workloads.Workload.t) ->
        let p = Epic_frontend.Lower.compile_source w.Epic_workloads.Workload.source in
        ignore (Epic_analysis.Profile.profile_and_annotate p w.Epic_workloads.Workload.train);
        ignore (Epic_opt.Inline.run p);
        acc + dce_matches_oracle w.Epic_workloads.Workload.name p)
      0 Epic_workloads.Suite.all
  in
  check cb "dead code found" true (removed > 0)

let test_dce_oracle_random () =
  let rand = Random.State.make [| 20 |] in
  List.iteri
    (fun k src ->
      let p = Epic_frontend.Lower.compile_source src in
      ignore (Epic_opt.Inline.run p);
      ignore (dce_matches_oracle (Printf.sprintf "random program %d" k) p))
    (QCheck.Gen.generate ~rand ~n:50 Epic_core.Random_program.Gen.program)

(* A dead copy in a loop is the only use of a value defined before the
   loop.  Removing the copy leaves that value live around the back edge in
   the cached liveness; only a recompute shows its definition dead. *)
let test_dce_loop_carried () =
  Instr.reset_ids ();
  let p = Program.create () in
  let f = Func.create "main" [] in
  let bld = Builder.create f in
  ignore (Builder.start_block bld "entry");
  let v = Builder.fresh_int bld and i = Builder.fresh_int bld in
  Builder.movi bld v 7;
  Builder.movi bld i 0;
  ignore (Builder.start_block bld "loop");
  Builder.mov bld (Builder.fresh_int bld) (Operand.Reg v);
  Builder.add bld i (Operand.Reg i) (Operand.imm 1);
  ignore (Builder.cbr bld Opcode.Lt (Operand.Reg i) (Operand.imm 10) "loop");
  ignore (Builder.start_block bld "exit");
  Builder.ret bld [ Operand.Reg i ];
  Program.add_func p f;
  check ci "removed" 2 (dce_matches_oracle "loop-carried" p);
  check cb "definition before the loop removed" false
    (List.exists
       (fun (b : Block.t) ->
         List.exists (fun (ins : Instr.t) -> List.exists (Reg.equal v) ins.Instr.dsts) b.Block.instrs)
       f.Func.blocks)

let suite =
  [
    ("constfold folds", `Quick, test_constfold_folds);
    ("constfold identities", `Quick, test_constfold_identities);
    ("strength reduction", `Quick, test_strength_mul_to_shift);
    ("dce removes dead", `Quick, test_dce_removes_dead);
    ("dce keeps effects", `Quick, test_dce_keeps_stores_and_calls);
    ("cse reuses expressions", `Quick, test_cse_reuses_expressions);
    ("cse respects stores", `Quick, test_cse_respects_stores);
    ("jumpopt collapses", `Quick, test_jumpopt_collapses_chains);
    ("classical pipeline semantics", `Quick, test_classical_pipeline_semantics);
    ("licm", `Quick, test_licm_hoists);
    ("inline leaf", `Quick, test_inline_leaf);
    ("inline skips recursion", `Quick, test_inline_skips_recursive);
    ("inline zero budget", `Quick, test_inline_budget_zero);
    ("indirect call specialization", `Quick, test_indirect_specialization);
    ("cse keeps float immediates apart", `Quick, test_cse_float_immediates);
    ("cse structural keys", `Quick, test_cse_structural_keys);
    ("dce matches the iterated oracle: suite", `Quick, test_dce_oracle_suite);
    ("dce matches the iterated oracle: random programs", `Quick, test_dce_oracle_random);
    ("dce loop-carried dead value", `Quick, test_dce_loop_carried);
  ]
