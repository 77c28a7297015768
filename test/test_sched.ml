(* Back-end tests: dependence DAG, list scheduler invariants (checked also
   as qcheck properties over randomly generated blocks), register allocator
   and bundler. *)

open Epic_ir
open Epic_sched
open Epic_mach

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let desc = Machine_desc.itanium2

(* --- helpers -------------------------------------------------------------- *)

let func_of_block instrs =
  let f = Func.create "t" [] in
  let b = Block.create "b" in
  b.Block.instrs <- instrs;
  Block.append b (Instr.create Opcode.Br_ret ~srcs:[ Operand.imm 0 ]);
  Func.append_block f b;
  (f, b)

let vi n = Reg.virt n Reg.Int

let test_dag_raw_edge () =
  let a = Instr.create Opcode.Mov ~dsts:[ vi 1 ] ~srcs:[ Operand.imm 1 ] in
  let b = Instr.create Opcode.Add ~dsts:[ vi 2 ] ~srcs:[ Operand.Reg (vi 1); Operand.imm 1 ] in
  let f, blk = func_of_block [ a; b ] in
  let live = Epic_analysis.Liveness.compute f in
  let g = Dag.build ~desc live blk in
  check cb "RAW edge exists" true (List.mem_assoc 1 g.Dag.succs.(0))

let test_dag_memory_edges () =
  let st = Instr.create (Opcode.St Opcode.B8) ~srcs:[ Operand.Reg (vi 1); Operand.imm 0 ] in
  let ld = Instr.create (Opcode.Ld (Opcode.B8, Opcode.Nonspec)) ~dsts:[ vi 2 ] ~srcs:[ Operand.Reg (vi 1) ] in
  let f, blk = func_of_block [ st; ld ] in
  let live = Epic_analysis.Liveness.compute f in
  let g = Dag.build ~desc live blk in
  check cb "store->load ordered (unknown tags alias)" true (List.mem_assoc 1 g.Dag.succs.(0))

let test_dag_branch_pins_store () =
  let f = Func.create "t" [] in
  let b = Block.create "b" in
  let p = Reg.virt 9 Reg.Prd in
  let st = Instr.create (Opcode.St Opcode.B8) ~srcs:[ Operand.Reg (vi 1); Operand.imm 7 ] in
  let br = Instr.create ~pred:p Opcode.Br ~srcs:[ Operand.Label "out" ] in
  let st2 = Instr.create (Opcode.St Opcode.B8) ~srcs:[ Operand.Reg (vi 2); Operand.imm 8 ] in
  b.Block.instrs <- [ st; br; st2 ];
  Block.append b (Instr.create Opcode.Br_ret ~srcs:[ Operand.imm 0 ]);
  Func.append_block f b;
  let out = Block.create "out" in
  Block.append out (Instr.create Opcode.Br_ret ~srcs:[ Operand.imm 1 ]);
  Func.append_block f out;
  let live = Epic_analysis.Liveness.compute f in
  let g = Dag.build ~desc live b in
  check cb "store before branch pinned above" true (List.mem_assoc 1 g.Dag.succs.(0));
  check cb "store after branch pinned below" true (List.mem_assoc 2 g.Dag.succs.(1))

let test_dag_speculative_load_free () =
  let f = Func.create "t" [] in
  let b = Block.create "b" in
  let p = Reg.virt 9 Reg.Prd in
  let br = Instr.create ~pred:p Opcode.Br ~srcs:[ Operand.Label "out" ] in
  let ld = Instr.create (Opcode.Ld (Opcode.B8, Opcode.Spec_general)) ~dsts:[ vi 2 ] ~srcs:[ Operand.imm 4096 ] in
  ld.Instr.attrs.Instr.speculated <- true;
  let ldn = Instr.create (Opcode.Ld (Opcode.B8, Opcode.Nonspec)) ~dsts:[ vi 3 ] ~srcs:[ Operand.imm 4096 ] in
  b.Block.instrs <- [ br; ld; ldn ];
  Block.append b (Instr.create Opcode.Br_ret ~srcs:[ Operand.Reg (vi 2); Operand.Reg (vi 3) ]);
  Func.append_block f b;
  let out = Block.create "out" in
  Block.append out (Instr.create Opcode.Br_ret ~srcs:[ Operand.imm 1 ]);
  Func.append_block f out;
  let live = Epic_analysis.Liveness.compute f in
  let g = Dag.build ~desc live b in
  check cb "speculative load NOT pinned by branch" false (List.mem_assoc 1 g.Dag.succs.(0));
  check cb "non-speculative load pinned" true (List.mem_assoc 2 g.Dag.succs.(0))

(* --- scheduler invariants -------------------------------------------------- *)

(* After scheduling: (1) all instrs have cycles; (2) the list is sorted by
   cycle; (3) every DAG edge (i -> j, lat) satisfies cycle(j) >= cycle(i) +
   lat, with order preserved for latency 0; (4) per-cycle resource caps
   hold. *)
let schedule_invariants (f : Func.t) (b : Block.t) =
  let live = Epic_analysis.Liveness.compute f in
  let g = Dag.build ~desc live b in
  List_sched.schedule_block ~desc live b;
  let arr = Array.of_list b.Block.instrs in
  Array.iter (fun (i : Instr.t) -> assert (i.Instr.cycle >= 0)) arr;
  Array.iteri
    (fun k (i : Instr.t) ->
      if k > 0 then assert (arr.(k - 1).Instr.cycle <= i.Instr.cycle))
    arr;
  (* map id -> (cycle, position) *)
  let pos = Hashtbl.create 32 in
  Array.iteri (fun k (i : Instr.t) -> Hashtbl.replace pos i.Instr.id (i.Instr.cycle, k)) arr;
  Array.iteri
    (fun i_idx succs ->
      List.iter
        (fun (j_idx, lat) ->
          let ii = g.Dag.instrs.(i_idx) and jj = g.Dag.instrs.(j_idx) in
          let ci_, pi = Hashtbl.find pos ii.Instr.id in
          let cj, pj = Hashtbl.find pos jj.Instr.id in
          assert (cj >= ci_ + lat);
          if lat = 0 && cj = ci_ then assert (pj > pi))
        succs)
    g.Dag.succs;
  (* resource caps per cycle *)
  let by_cycle = Hashtbl.create 16 in
  Array.iter
    (fun (i : Instr.t) ->
      let l = match Hashtbl.find_opt by_cycle i.Instr.cycle with Some l -> l | None -> [] in
      Hashtbl.replace by_cycle i.Instr.cycle (i :: l))
    arr;
  Hashtbl.iter
    (fun _ instrs ->
      let caps = Itanium.fresh_caps desc in
      List.iter (fun i -> assert (Itanium.take caps i)) (List.rev instrs))
    by_cycle;
  true

let test_schedule_simple_block () =
  let instrs =
    [
      Instr.create Opcode.Mov ~dsts:[ vi 1 ] ~srcs:[ Operand.imm 1 ];
      Instr.create Opcode.Mov ~dsts:[ vi 2 ] ~srcs:[ Operand.imm 2 ];
      Instr.create Opcode.Add ~dsts:[ vi 3 ] ~srcs:[ Operand.Reg (vi 1); Operand.Reg (vi 2) ];
      Instr.create Opcode.Mul ~dsts:[ vi 4 ] ~srcs:[ Operand.Reg (vi 3); Operand.imm 3 ];
    ]
  in
  let f, b = func_of_block instrs in
  check cb "invariants hold" true (schedule_invariants f b);
  (* the two independent movs share cycle 0 *)
  let cycles = List.map (fun (i : Instr.t) -> i.Instr.cycle) b.Block.instrs in
  check ci "first cycle is 0" 0 (List.hd cycles)

let test_schedule_respects_latency () =
  let instrs =
    [
      Instr.create Opcode.Mul ~dsts:[ vi 1 ] ~srcs:[ Operand.imm 3; Operand.imm 4 ];
      Instr.create Opcode.Add ~dsts:[ vi 2 ] ~srcs:[ Operand.Reg (vi 1); Operand.imm 1 ];
    ]
  in
  let f, b = func_of_block instrs in
  ignore (schedule_invariants f b);
  let mul = List.find (fun (i : Instr.t) -> i.Instr.op = Opcode.Mul) b.Block.instrs in
  let add = List.find (fun (i : Instr.t) -> i.Instr.op = Opcode.Add) b.Block.instrs in
  check cb "mul latency respected" true
    (add.Instr.cycle >= mul.Instr.cycle + Itanium.latency desc Opcode.Mul)

let test_schedule_issue_width () =
  (* ten independent movs cannot fit in one six-wide cycle *)
  let instrs =
    List.init 10 (fun k -> Instr.create Opcode.Mov ~dsts:[ vi (k + 1) ] ~srcs:[ Operand.imm k ])
  in
  let f, b = func_of_block instrs in
  ignore (schedule_invariants f b);
  let max_cycle =
    List.fold_left (fun m (i : Instr.t) -> max m i.Instr.cycle) 0 b.Block.instrs
  in
  check cb "spans at least two cycles" true (max_cycle >= 1)

(* qcheck: random straight-line blocks keep all invariants *)
let random_block_gen =
  let open QCheck.Gen in
  let op_gen regs =
    oneof
      [
        (let* d = int_range 1 regs and* k = int_range 0 99 in
         return (Instr.create Opcode.Mov ~dsts:[ vi d ] ~srcs:[ Operand.imm k ]));
        (let* d = int_range 1 regs and* a = int_range 1 regs and* b = int_range 1 regs in
         return
           (Instr.create Opcode.Add ~dsts:[ vi d ]
              ~srcs:[ Operand.Reg (vi a); Operand.Reg (vi b) ]));
        (let* d = int_range 1 regs and* a = int_range 1 regs in
         return
           (Instr.create Opcode.Mul ~dsts:[ vi d ] ~srcs:[ Operand.Reg (vi a); Operand.imm 3 ]));
        (let* d = int_range 1 regs and* a = int_range 1 regs in
         return
           (Instr.create (Opcode.Ld (Opcode.B8, Opcode.Nonspec)) ~dsts:[ vi d ]
              ~srcs:[ Operand.Reg (vi a) ]));
        (let* a = int_range 1 regs and* v = int_range 1 regs in
         return
           (Instr.create (Opcode.St Opcode.B8)
              ~srcs:[ Operand.Reg (vi a); Operand.Reg (vi v) ]));
      ]
  in
  let* n = int_range 1 40 in
  list_size (return n) (op_gen 8)

let qcheck_schedule =
  QCheck.Test.make ~count:60 ~name:"random blocks schedule with invariants"
    (QCheck.make random_block_gen)
    (fun instrs ->
      Instr.reset_ids ();
      let instrs = List.map Instr.copy instrs in
      let f, b = func_of_block instrs in
      schedule_invariants f b)

(* --- regalloc -------------------------------------------------------------- *)

let test_regalloc_all_physical () =
  let p = Epic_frontend.Lower.compile_source
      "int main() { int a; int b; a = 1; b = a + 2; print_int(a * b); return 0; }"
  in
  let before = Interp.run p [||] in
  ignore (Regalloc.run p);
  Program.iter_instrs p (fun i ->
      List.iter (fun (r : Reg.t) -> check cb "defs physical" true r.Reg.phys) (Instr.defs i);
      List.iter (fun (r : Reg.t) -> check cb "uses physical" true r.Reg.phys) (Instr.uses i));
  let after = Interp.run p [||] in
  let out3 (c, o, _) = (c, o) in
  check (Alcotest.pair ci Alcotest.string) "allocation preserves semantics"
    (out3 before) (out3 after)

let test_regalloc_n_stacked () =
  let p =
    Epic_frontend.Lower.compile_source
      {|
int callee(int x) { return x + 1; }
int main() {
  int a; int b; int c;
  a = input(0);
  b = callee(a);
  c = callee(b);
  print_int(a + b + c);
  return 0;
}
|}
  in
  ignore (Regalloc.run p);
  let main = Program.find_func_exn p "main" in
  (* a and b live across calls: at least two stacked registers *)
  check cb "call-crossing values use the register stack" true (main.Func.n_stacked >= 2)

let test_regalloc_spill_pressure () =
  (* force > 114 simultaneously live values with a big expression chain *)
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "int main() {\n";
  for k = 0 to 129 do
    Buffer.add_string buf (Printf.sprintf "  int v%d;\n" k)
  done;
  for k = 0 to 129 do
    Buffer.add_string buf (Printf.sprintf "  v%d = input(%d) + %d;\n" k k k)
  done;
  Buffer.add_string buf "  print_int(";
  for k = 0 to 129 do
    Buffer.add_string buf (if k = 0 then "v0" else Printf.sprintf " + v%d" k)
  done;
  Buffer.add_string buf ");\n  return 0;\n}\n";
  let src = Buffer.contents buf in
  let p = Epic_frontend.Lower.compile_source src in
  let input = Array.init 130 Int64.of_int in
  let c0, o0, _ = Interp.run p input in
  check cb "spills happened" true (Regalloc.run p > 0);
  let c1, o1, _ = Interp.run p input in
  check (Alcotest.pair ci Alcotest.string) "spill code is correct" (c0, o0) (c1, o1)

(* --- bundler ---------------------------------------------------------------- *)

let test_bundle_pack_preserves_ops () =
  let mk op = Instr.create op ~dsts:[ vi 1 ] ~srcs:[ Operand.imm 0 ] in
  let g1 = [ mk Opcode.Add; mk Opcode.Shl; mk Opcode.Mov ] in
  let g2 = [ mk (Opcode.Ld (Opcode.B8, Opcode.Nonspec)); mk Opcode.Add ] in
  let bundles, ranges = Bundle.pack_block [ g1; g2 ] in
  let total_ops =
    List.fold_left (fun n b -> n + Bundle.op_count b) 0 bundles
  in
  check ci "all ops placed exactly once" 5 total_ops;
  check ci "one range per group" 2 (List.length ranges);
  (* program order preserved across the bundle stream *)
  let flat =
    List.concat_map
      (fun (b : Bundle.t) ->
        Array.to_list b.Bundle.slots
        |> List.filter_map (function Bundle.Op i -> Some i.Instr.id | Bundle.Nop_slot -> None))
      bundles
  in
  let expected = List.map (fun (i : Instr.t) -> i.Instr.id) (g1 @ g2) in
  check (Alcotest.list ci) "order preserved" expected flat

let test_bundle_template_classes () =
  (* a branch can only sit in a B slot of a branch-bearing template *)
  let br = Instr.create Opcode.Br ~srcs:[ Operand.Label "x" ] in
  let bundles = Bundle.pack_group [ br ] in
  List.iter
    (fun (b : Bundle.t) ->
      Array.iteri
        (fun k slot ->
          match slot with
          | Bundle.Op i when Instr.is_branch i ->
              let _, tmpl =
                List.find (fun (n, _) -> n = b.Bundle.template) Bundle.templates
              in
              check cb "branch sits in a B slot" true (tmpl.(k) = Bundle.SB)
          | _ -> ())
        b.Bundle.slots)
    bundles

let test_modulo_bounds () =
  (* a serial accumulator loop: RecMII dominated by the add chain; a wide
     independent loop: ResMII dominated by memory ports *)
  let b = Block.create "loop" in
  let acc = vi 1 and x = vi 2 in
  b.Block.instrs <-
    [
      Instr.create (Opcode.Ld (Opcode.B8, Opcode.Nonspec)) ~dsts:[ x ] ~srcs:[ Operand.Reg (vi 3) ];
      Instr.create Opcode.Mul ~dsts:[ acc ] ~srcs:[ Operand.Reg acc; Operand.Reg x ];
      Instr.create Opcode.Add ~dsts:[ vi 3 ] ~srcs:[ Operand.Reg (vi 3); Operand.imm 8 ];
      Instr.create ~pred:(Reg.virt 9 Reg.Prd) Opcode.Br ~srcs:[ Operand.Label "loop" ];
    ];
  (match Modulo.analyze_block ~desc b with
  | Some a ->
      (* the acc *= x recurrence costs a multiply (latency 3) per iteration *)
      check cb "recurrence bound from the multiply" true (a.Modulo.rec_mii >= Itanium.latency desc Opcode.Mul);
      check cb "mii >= both bounds" true
        (a.Modulo.mii >= a.Modulo.rec_mii && a.Modulo.mii >= a.Modulo.res_mii)
  | None -> Alcotest.fail "loop not recognized");
  (* resource-bound loop: five independent loads per iteration, two load pipes *)
  let b2 = Block.create "loop" in
  b2.Block.instrs <-
    List.init 5 (fun k ->
        Instr.create (Opcode.Ld (Opcode.B8, Opcode.Nonspec)) ~dsts:[ vi (10 + k) ]
          ~srcs:[ Operand.Reg (vi 3) ])
    @ [ Instr.create ~pred:(Reg.virt 9 Reg.Prd) Opcode.Br ~srcs:[ Operand.Label "loop" ] ];
  (match Modulo.analyze_block ~desc b2 with
  | Some a -> check cb "five loads need >= 2 cycles on 4 M slots" true (a.Modulo.res_mii >= 2)
  | None -> Alcotest.fail "loop2 not recognized")

let test_modulo_skips_calls () =
  let b = Block.create "loop" in
  b.Block.instrs <-
    [
      Instr.create Opcode.Br_call ~srcs:[ Operand.Sym "print_int"; Operand.imm 1 ];
      Instr.create ~pred:(Reg.virt 9 Reg.Prd) Opcode.Br ~srcs:[ Operand.Label "loop" ];
    ];
  check cb "loops with calls are not eligible" true (Modulo.analyze_block ~desc b = None)

let test_layout_addresses_monotonic () =
  let p = Epic_frontend.Lower.compile_source
      "int f() { return 2; }\nint main() { print_int(f()); return 0; }"
  in
  ignore (Regalloc.run p);
  List_sched.run ~desc p;
  let l = Layout.build ~desc p in
  check cb "nonzero code" true (l.Layout.code_bytes > 0);
  Hashtbl.iter
    (fun _ (bl : Layout.block_layout) ->
      Array.iter
        (fun (g : Layout.group) ->
          check cb "addresses set" true (Int64.compare g.Layout.addr 0L > 0))
        bl.Layout.groups)
    l.Layout.by_block

let suite =
  [
    ("dag RAW edge", `Quick, test_dag_raw_edge);
    ("dag memory edges", `Quick, test_dag_memory_edges);
    ("dag branch pins stores", `Quick, test_dag_branch_pins_store);
    ("dag speculative load freedom", `Quick, test_dag_speculative_load_free);
    ("schedule simple block", `Quick, test_schedule_simple_block);
    ("schedule latency", `Quick, test_schedule_respects_latency);
    ("schedule issue width", `Quick, test_schedule_issue_width);
    QCheck_alcotest.to_alcotest qcheck_schedule;
    ("regalloc all physical", `Quick, test_regalloc_all_physical);
    ("regalloc stacked count", `Quick, test_regalloc_n_stacked);
    ("regalloc spill pressure", `Quick, test_regalloc_spill_pressure);
    ("bundle pack preserves ops", `Quick, test_bundle_pack_preserves_ops);
    ("bundle template classes", `Quick, test_bundle_template_classes);
    ("modulo II bounds", `Quick, test_modulo_bounds);
    ("modulo skips calls", `Quick, test_modulo_skips_calls);
    ("layout addresses", `Quick, test_layout_addresses_monotonic);
  ]
