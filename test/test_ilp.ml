(* ILP / structural transformation tests: hyperblock if-conversion,
   superblock formation with tail duplication, loop peeling, unrolling and
   control speculation — each checked for its structural effect and for
   semantic preservation. *)

open Epic_ir

let check = Alcotest.check
let ci = Alcotest.int
let cs = Alcotest.string
let cb = Alcotest.bool

let run p input =
  let code, out, _ = Interp.run p input in
  (code, out)

let prepared ?(input = [||]) src =
  let p = Epic_frontend.Lower.compile_source src in
  ignore (Epic_analysis.Profile.profile_and_annotate p input);
  ignore (Epic_analysis.Points_to.analyze p);
  Epic_opt.Pipeline.run_classical p;
  Epic_analysis.Profile.reprofile p input;
  p

let diamond_src =
  {|
int g[64];
int main() {
  int i; int s;
  for (i = 0; i < 64; i = i + 1) { g[i] = (i * 11) % 13 - 5; }
  s = 0;
  for (i = 0; i < 64; i = i + 1) {
    if (g[i] > 0) { s = s + g[i]; } else { s = s - 1; }
  }
  print_int(s);
  return 0;
}
|}

let fill_then ~init src = init ^ src

let test_hyperblock_converts_diamond () =
  let p = prepared diamond_src in
  let before = run p [||] in
  let converted = Epic_ilp.Hyperblock.run p in
  Verify.check_program p;
  check cb "at least one region converted" true (converted >= 1);
  check (Alcotest.pair ci cs) "semantics preserved" before (run p [||]);
  (* predicated instructions now exist *)
  let predicated = ref 0 in
  Program.iter_instrs p (fun i -> if i.Instr.pred <> None && i.Instr.op <> Opcode.Br then incr predicated);
  check cb "predicated code produced" true (!predicated > 0)

let test_hyperblock_unc_compare () =
  let p = prepared diamond_src in
  ignore (Epic_ilp.Hyperblock.run p);
  let unc = ref false in
  Program.iter_instrs p (fun i ->
      match i.Instr.op with
      | Opcode.Cmp (_, Opcode.Unc) -> unc := true
      | _ -> ());
  check cb "defining compare became unconditional type" true !unc

let test_hyperblock_skips_calls () =
  let p =
    prepared
      {|
int g;
int side() { g = g + 1; return g; }
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 10; i = i + 1) {
    if (i % 2 == 0) { s = s + side(); } else { s = s - 1; }
  }
  print_int(s);
  return 0;
}
|}
  in
  let before = run p [||] in
  ignore (Epic_ilp.Hyperblock.run p);
  Verify.check_program p;
  check (Alcotest.pair ci cs) "still correct" before (run p [||]);
  (* no call may be predicated by the converter *)
  Program.iter_instrs p (fun i ->
      if Instr.is_call i then check cb "calls unpredicated" true (i.Instr.pred = None))

let test_superblock_forms_trace () =
  let p = prepared diamond_src in
  let before = run p [||] in
  let formed = Epic_ilp.Superblock.run p in
  Verify.check_program p;
  check cb "traces formed" true (formed >= 1);
  check (Alcotest.pair ci cs) "semantics preserved" before (run p [||])

let test_superblock_tail_duplication () =
  (* a join block with two hot predecessors forces duplication *)
  let src =
    {|
int g[64];
int main() {
  int i; int s; int t;
  s = 0;
  for (i = 0; i < 200; i = i + 1) {
    if (g[i & 63] > 0) { t = i * 3; } else { t = i * 5; }
    s = s + t * 2 + 1;
    s = s % 65536;
  }
  print_int(s);
  return 0;
}
|}
  in
  let p = Epic_frontend.Lower.compile_source src in
  ignore (Epic_analysis.Profile.profile_and_annotate p [||]);
  Epic_opt.Pipeline.run_classical p;
  Epic_analysis.Profile.reprofile p [||];
  let before = run p [||] in
  (* keep the diamond from being if-converted so the superblock pass sees it *)
  ignore (Epic_ilp.Superblock.run p);
  Verify.check_program p;
  check (Alcotest.pair ci cs) "semantics preserved" before (run p [||])

let peel_src =
  {|
int data[128];
int work(int start) {
  int s; int q;
  s = 0;
  q = start;
  while (q > 0) { s = s + data[q & 127]; q = q - 150; }
  return s;
}
int main() {
  int t; int total; int i;
  for (i = 0; i < 128; i = i + 1) { data[i] = i; }
  total = 0;
  for (t = 0; t < 80; t = t + 1) { total = total + work((t * 13) % 140 + 1); }
  print_int(total);
  return 0;
}
|}

let test_peel_one_trip_loop () =
  let p = prepared peel_src in
  ignore (Epic_opt.Inline.run p);
  Epic_analysis.Profile.reprofile p [||];
  let before = run p [||] in
  let n = Epic_ilp.Peel.run p in
  Verify.check_program p;
  check cb "a loop was peeled" true (n >= 1);
  check (Alcotest.pair ci cs) "semantics preserved" before (run p [||])

let test_peel_skips_high_trip_loops () =
  let p =
    prepared
      {|
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 1000; i = i + 1) { s = s + i; }
  print_int(s);
  return 0;
}
|}
  in
  let n = Epic_ilp.Peel.run p in
  check ci "1000-trip loop not peeled" 0 n

let unrollable_src =
  {|
int a[512];
int main() {
  int i; int s;
  for (i = 0; i < 512; i = i + 1) { a[i] = i % 9; }
  s = 0;
  for (i = 0; i < 512; i = i + 1) { s = s + a[i] * 3; }
  print_int(s);
  return 0;
}
|}

let test_unroll_hot_loop () =
  let p = prepared unrollable_src in
  ignore (Epic_ilp.Superblock.run p);
  Epic_analysis.Profile.reprofile p [||];
  let before = run p [||] in
  let n = Epic_ilp.Unroll.run p in
  Verify.check_program p;
  check cb "hot loops unrolled" true (n >= 1);
  check (Alcotest.pair ci cs) "semantics preserved" before (run p [||])

let union_src =
  {|
int rng;
int rand_next() { rng = rng * 1103515245 + 12345; return (rng >> 16) & 32767; }
int main() {
  int i; int s; int tag; int v; int *cells; int *boxed;
  rng = 3;
  cells = malloc(64 * 16);
  for (i = 0; i < 64; i = i + 1) {
    if (rand_next() % 3 == 0) {
      boxed = malloc(8);
      boxed[0] = i * 7;
      cells[i * 2] = 1;
      cells[i * 2 + 1] = (int) boxed;
    } else {
      cells[i * 2] = 0;
      cells[i * 2 + 1] = rand_next() + 600;
    }
  }
  s = 0;
  for (i = 0; i < 64; i = i + 1) {
    tag = cells[i * 2];
    v = cells[i * 2 + 1];
    if (tag == 1) { s = s + *((int*) v); } else { s = s + v; }
    s = s % 1000000;
  }
  print_int(s);
  return 0;
}
|}

let ilp_prepared src input =
  let p = prepared ~input src in
  ignore (Epic_ilp.Peel.run p);
  Epic_analysis.Profile.reprofile p input;
  ignore (Epic_ilp.Hyperblock.run p);
  Epic_analysis.Profile.reprofile p input;
  ignore (Epic_ilp.Superblock.run p);
  Epic_analysis.Profile.reprofile p input;
  ignore (Epic_ilp.Unroll.run p);
  Epic_opt.Pipeline.run_classical p;
  Epic_analysis.Profile.reprofile p input;
  p

let test_speculate_general_preserves () =
  let p = ilp_prepared union_src [||] in
  let before = run p [||] in
  let speculated = Epic_ilp.Speculate.run p in
  Verify.check_program p;
  check cb "loads were speculated" true (speculated > 0);
  check (Alcotest.pair ci cs) "general speculation preserves semantics" before (run p [||]);
  (* promoted wild loads produce NaT in the interpreter without faulting *)
  let _, _, st = Interp.run p [||] in
  check cb "no NaT consumed by effects" true (st.Interp.nat_faults = 0)

let test_speculate_sentinel_inserts_checks () =
  let p = ilp_prepared union_src [||] in
  let before = run p [||] in
  let speculated =
    Epic_ilp.Speculate.run
      ~params:
        { Epic_ilp.Speculate.default_params with Epic_ilp.Speculate.model = Epic_ilp.Speculate.Sentinel }
      p
  in
  Verify.check_program p;
  let chks = ref 0 in
  Program.iter_instrs p (fun i ->
      match i.Instr.op with Opcode.Chk _ -> incr chks | _ -> ());
  check cb "chk.s present" true (!chks > 0);
  check ci "one chk per speculated load" speculated !chks;
  check (Alcotest.pair ci cs) "sentinel speculation preserves semantics" before (run p [||])

let test_region_util_edge_probs () =
  let p = prepared diamond_src in
  let f = Program.find_func_exn p "main" in
  List.iter
    (fun (b : Block.t) ->
      let probs = Epic_ilp.Region_util.edge_probs f b in
      let total = Hashtbl.fold (fun _ p acc -> acc +. p) probs 0. in
      if Func.successors f b <> [] && b.Block.weight > 0. then
        check cb "edge probabilities sum to about 1" true (total > 0.9 && total < 1.1))
    f.Func.blocks

let test_full_ilp_pipeline_on_workloads () =
  (* end-to-end IR-level differential on two real workloads *)
  List.iter
    (fun short ->
      let w = Epic_workloads.Suite.find_exn short in
      let p = Epic_frontend.Lower.compile_source w.Epic_workloads.Workload.source in
      let before = run p w.Epic_workloads.Workload.train in
      let p2 = Epic_frontend.Lower.compile_source w.Epic_workloads.Workload.source in
      let p2 = ilp_prepared
        (ignore p2; w.Epic_workloads.Workload.source)
        w.Epic_workloads.Workload.train in
      ignore (Epic_ilp.Speculate.run p2);
      Verify.check_program p2;
      check (Alcotest.pair ci cs)
        (short ^ " ILP pipeline preserves semantics")
        before
        (run p2 w.Epic_workloads.Workload.train))
    [ "gzip"; "twolf" ]

let test_height_reduction () =
  let src =
    "int main() { int a; int b; int c; int d; int s; a = input(0); b = a * 3; c = a - 7; d = b ^ c; s = a + b + c + d + 5 + a + b + c; print_int(s); return 0; }"
  in
  let p = Epic_frontend.Lower.compile_source src in
  let before = run p [| 4L |] in
  Epic_opt.Pipeline.run_classical p;
  let changed = Epic_ilp.Height.run p in
  Verify.check_program p;
  check cb "a chain was rebalanced" true changed;
  check (Alcotest.pair ci cs) "height reduction preserves semantics" before (run p [| 4L |]);
  (* the dependence height of the rebalanced block must not be larger *)
  ignore (Epic_opt.Dce.run p)

let test_height_skips_guarded () =
  (* a predicated add must break the chain *)
  let b = Block.create "x" in
  let vi n = Reg.virt n Reg.Int in
  let p9 = Reg.virt 9 Reg.Prd in
  let link d a t = Instr.create Opcode.Add ~dsts:[ vi d ] ~srcs:[ Operand.Reg (vi a); Operand.imm t ] in
  b.Block.instrs <-
    [ link 2 1 1; link 3 2 2;
      Instr.create ~pred:p9 Opcode.Add ~dsts:[ vi 4 ] ~srcs:[ Operand.Reg (vi 3); Operand.imm 3 ];
      link 5 4 4; link 6 5 5;
      Instr.create Opcode.Br_ret ~srcs:[ Operand.Reg (vi 6) ] ];
  let f = Func.create "t" [] in
  Func.append_block f b;
  let live = Epic_analysis.Liveness.compute f in
  let changed = Epic_ilp.Height.run_block f live b in
  check cb "guarded link breaks the chain" false changed

let test_data_speculation () =
  let src =
    {|
int main() {
  int i; int s; int *a; int *b;
  a = malloc(2048);
  b = malloc(2048);
  for (i = 0; i < 256; i = i + 1) { a[i] = i; b[i] = 0; }
  s = 0;
  for (i = 1; i < 255; i = i + 1) {
    b[i] = s % 64;
    s = s + a[i + 1] * 3;
  }
  print_int(s);
  return 0;
}
|}
  in
  (* defeat points-to with pointer analysis off, as the paper's gap story *)
  let p0 = Epic_frontend.Lower.compile_source src in
  let expected =
    let c, o, _ = Interp.run p0 [||] in
    (c, o)
  in
  let config =
    {
      (Epic_core.Config.make Epic_core.Config.ILP_CS) with
      Epic_core.Config.enable_data_speculation = true;
      Epic_core.Config.pointer_analysis = false;
    }
  in
  let compiled = Epic_core.Driver.compile ~config ~train:[||] src in
  check cb "loads were advanced" true
    (compiled.Epic_core.Driver.transform_stats.Epic_core.Driver.advanced_loads > 0);
  let code, out, _ = Epic_core.Driver.run compiled [||] in
  check (Alcotest.pair ci cs) "data speculation preserves semantics" expected (code, out);
  (* the IR-level semantics (scheduled order!) must also hold: a hoisted
     ld.a that conflicts is repaired by its chk.a *)
  let ir = Epic_core.Driver.run_reference compiled [||] in
  check (Alcotest.pair ci cs) "interp agrees on scheduled IR" expected ir

let test_alat_recovery_semantics () =
  (* hand-built conflict: advance a load above a truly-aliasing store; the
     chk.a must restore the stored value *)
  Instr.reset_ids ();
  let p = Program.create () in
  let _ = Program.add_global p "g" ~size:16 in
  let f = Func.create "main" [] in
  let bld = Builder.create f in
  ignore (Builder.start_block bld "entry");
  let addr = Builder.fresh_int bld in
  Builder.lea bld addr "g" 0;
  ignore (Builder.store bld (Operand.reg addr) (Operand.imm 1));
  (* advanced load hoisted above the store in final order: *)
  let d = Builder.fresh_int bld in
  let ld = Builder.load ~spec:Opcode.Spec_advanced bld d (Operand.reg addr) in
  ld.Instr.attrs.Instr.speculated <- true;
  ignore (Builder.store bld (Operand.reg addr) (Operand.imm 42));
  let chk =
    Epic_ir.Builder.emit bld (Opcode.Chka Opcode.B8)
      ~srcs:[ Operand.reg d; Operand.reg addr ]
  in
  chk.Instr.attrs.Instr.check_reg <- Some d;
  ignore (Builder.call bld "print_int" [ Operand.reg d ]);
  Builder.ret bld [ Operand.imm 0 ];
  Program.add_func p f;
  Program.assign_addresses p;
  let _, out, st = Interp.run p [||] in
  check cs "chk.a recovered the stored value" "42" (String.trim out);
  check ci "one recovery" 1 st.Interp.alat_recoveries

let _ = fill_then

let suite =
  [
    ("hyperblock converts diamond", `Quick, test_hyperblock_converts_diamond);
    ("hyperblock unc compare", `Quick, test_hyperblock_unc_compare);
    ("hyperblock skips calls", `Quick, test_hyperblock_skips_calls);
    ("superblock forms trace", `Quick, test_superblock_forms_trace);
    ("superblock tail duplication", `Quick, test_superblock_tail_duplication);
    ("peel one-trip loop", `Quick, test_peel_one_trip_loop);
    ("peel skips high-trip loops", `Quick, test_peel_skips_high_trip_loops);
    ("unroll hot loop", `Quick, test_unroll_hot_loop);
    ("speculate general", `Quick, test_speculate_general_preserves);
    ("speculate sentinel checks", `Quick, test_speculate_sentinel_inserts_checks);
    ("edge probabilities", `Quick, test_region_util_edge_probs);
    ("height reduction", `Quick, test_height_reduction);
    ("data speculation end-to-end", `Quick, test_data_speculation);
    ("ALAT recovery semantics", `Quick, test_alat_recovery_semantics);
    ("height skips guarded", `Quick, test_height_skips_guarded);
    ("full ILP pipeline on workloads", `Slow, test_full_ilp_pipeline_on_workloads);
  ]
