(* Unit tests for the IR substrate: registers, operands, opcodes,
   instructions, blocks, functions, programs, the builder, the verifier, the
   memory image and the reference interpreter. *)

open Epic_ir

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

(* --- Reg ---------------------------------------------------------------- *)

let test_reg_equality () =
  let a = Reg.virt 5 Reg.Int and b = Reg.virt 5 Reg.Int in
  check cb "same virtual regs equal" true (Reg.equal a b);
  check cb "different class differs" false (Reg.equal a (Reg.virt 5 Reg.Flt));
  check cb "virt <> phys" false (Reg.equal a (Reg.phys 5 Reg.Int));
  check cb "r0 is physical int 0" true (Reg.equal Reg.r0 (Reg.phys 0 Reg.Int))

let test_reg_stacked () =
  check cb "r32 is stacked" true (Reg.is_stacked (Reg.phys 32 Reg.Int));
  check cb "r31 is not stacked" false (Reg.is_stacked (Reg.phys 31 Reg.Int));
  check cb "virtual never stacked" false (Reg.is_stacked (Reg.virt 40 Reg.Int));
  check cb "predicates never stacked" false (Reg.is_stacked (Reg.phys 40 Reg.Prd))

let test_reg_printing () =
  check cs "phys int" "r12" (Fmt.str "%a" Reg.pp Reg.sp);
  check cs "virt pred" "vp7" (Fmt.str "%a" Reg.pp (Reg.virt 7 Reg.Prd));
  check cs "phys flt" "f8" (Fmt.str "%a" Reg.pp (Reg.phys 8 Reg.Flt))

let test_reg_set_map () =
  let s = Reg.Set.of_list [ Reg.virt 1 Reg.Int; Reg.virt 1 Reg.Int; Reg.virt 2 Reg.Int ] in
  check ci "set dedups" 2 (Reg.Set.cardinal s);
  let m = Reg.Map.add (Reg.virt 1 Reg.Int) "x" Reg.Map.empty in
  check cb "map lookup" true (Reg.Map.mem (Reg.virt 1 Reg.Int) m)

(* Register allocation and scheduling consume [Reg.Set]/[Reg.Map] iteration
   order, so [Reg.Ord.compare] must keep the order of the polymorphic compare
   on (class, physical, id): Int < Flt < Prd < Brr, virtual < physical,
   then id.  [Reg.hash] must keep the value it had as the hash of the
   (id, class, physical) tuple, which orders [Reg.Tbl] iteration. *)
let test_reg_compare_order () =
  let regs =
    List.concat_map
      (fun cls ->
        List.concat_map
          (fun id -> [ Reg.virt id cls; Reg.phys id cls ])
          [ 0; 1; 12; 127 ])
      Reg.[ Int; Flt; Prd; Brr ]
  in
  let sign c = Int.compare c 0 in
  List.iter
    (fun (a : Reg.t) ->
      check ci "hash" (Hashtbl.hash (a.Reg.id, a.Reg.cls, a.Reg.phys)) (Reg.hash a);
      List.iter
        (fun (b : Reg.t) ->
          check ci
            (Fmt.str "%a vs %a" Reg.pp a Reg.pp b)
            (sign (Stdlib.compare (a.Reg.cls, a.Reg.phys, a.Reg.id) (b.Reg.cls, b.Reg.phys, b.Reg.id)))
            (sign (Reg.Ord.compare a b)))
        regs)
    regs

(* --- Opcode --------------------------------------------------------------- *)

let test_opcode_classes () =
  check cb "branch" true (Opcode.is_branch Opcode.Br);
  check cb "call is branch" true (Opcode.is_branch Opcode.Br_call);
  check cb "add not branch" false (Opcode.is_branch Opcode.Add);
  check cb "load" true (Opcode.is_load (Opcode.Ld (Opcode.B8, Opcode.Nonspec)));
  check cb "store is mem" true (Opcode.is_mem (Opcode.St Opcode.B8));
  check cb "spec load detected" true
    (Opcode.is_speculative_load (Opcode.Ld (Opcode.B8, Opcode.Spec_general)))

let test_opcode_may_fault () =
  check cb "nonspec load faults" true (Opcode.may_fault (Opcode.Ld (Opcode.B8, Opcode.Nonspec)));
  check cb "spec load does not" false
    (Opcode.may_fault (Opcode.Ld (Opcode.B8, Opcode.Spec_general)));
  check cb "store faults" true (Opcode.may_fault (Opcode.St Opcode.B8));
  check cb "div faults" true (Opcode.may_fault Opcode.Div);
  check cb "add does not" false (Opcode.may_fault Opcode.Add)

let test_eval_icmp () =
  let t = Isa.icmp in
  check cb "lt" true (t Opcode.Lt 1L 2L);
  check cb "ge" true (t Opcode.Ge 2L 2L);
  check cb "ne" false (t Opcode.Ne 5L 5L);
  check cb "signed lt" true (t Opcode.Lt (-1L) 0L);
  check cb "unsigned ltu treats -1 as big" false (t Opcode.Ltu (-1L) 0L);
  check cb "geu" true (t Opcode.Geu (-1L) 5L)

(* Each relation's negation, as branch reversal and if-conversion would
   form it, never agrees with it. *)
let test_negate_icmp () =
  List.iter
    (fun (c, n) ->
      List.iter
        (fun (a, b) -> check cb "negation flips" (Isa.icmp c a b) (not (Isa.icmp n a b)))
        [ (1L, 2L); (2L, 1L); (3L, 3L); (-4L, 4L) ])
    Opcode.
      [ (Eq, Ne); (Ne, Eq); (Lt, Ge); (Le, Gt); (Gt, Le); (Ge, Lt); (Ltu, Geu); (Geu, Ltu) ]

(* --- Instr ---------------------------------------------------------------- *)

let test_instr_uses_defs () =
  let r1 = Reg.virt 1 Reg.Int and r2 = Reg.virt 2 Reg.Int in
  let p = Reg.virt 3 Reg.Prd in
  let i =
    Instr.create ~pred:p Opcode.Add ~dsts:[ r1 ]
      ~srcs:[ Operand.Reg r2; Operand.imm 4 ]
  in
  check ci "uses include guard" 2 (List.length (Instr.uses i));
  check cb "guard in uses" true (List.exists (Reg.equal p) (Instr.uses i));
  check ci "one def" 1 (List.length (Instr.defs i))

let test_instr_copy_provenance () =
  let i = Instr.create Opcode.Add ~dsts:[ Reg.virt 1 Reg.Int ] ~srcs:[ Operand.imm 1; Operand.imm 2 ] in
  let c = Instr.copy i in
  check cb "fresh id" true (c.Instr.id <> i.Instr.id);
  check ci "origin recorded" i.Instr.id c.Instr.attrs.Instr.origin;
  let c2 = Instr.copy c in
  check ci "origin persists through chains" i.Instr.id c2.Instr.attrs.Instr.origin

let test_instr_branch_target () =
  let b = Instr.create Opcode.Br ~srcs:[ Operand.Label "foo" ] in
  check (Alcotest.option cs) "target" (Some "foo") (Instr.branch_target b);
  let c = Instr.create Opcode.Br_call ~srcs:[ Operand.Sym "f" ] in
  check (Alcotest.option cs) "callee" (Some "f") (Instr.callee c);
  check (Alcotest.option cs) "call has no label target" None (Instr.branch_target c)

let test_instr_substitute () =
  let r1 = Reg.virt 1 Reg.Int and r2 = Reg.virt 2 Reg.Int in
  let i = Instr.create Opcode.Add ~dsts:[ r1 ] ~srcs:[ Operand.Reg r1; Operand.Reg r2 ] in
  Instr.substitute_uses (fun r -> if Reg.equal r r1 then Some r2 else None) i;
  check cb "src rewritten" true (List.for_all (Operand.equal (Operand.Reg r2)) i.Instr.srcs);
  check cb "dst untouched" true (Reg.equal (List.hd i.Instr.dsts) r1)

(* --- Func / Block --------------------------------------------------------- *)

let mk_linear_func () =
  let f = Func.create "t" [] in
  let b1 = Block.create "a" and b2 = Block.create "b" and b3 = Block.create "c" in
  Block.append b1 (Instr.create Opcode.Mov ~dsts:[ Reg.virt 1 Reg.Int ] ~srcs:[ Operand.imm 1 ]);
  Block.append b3 (Instr.create Opcode.Br_ret ~srcs:[ Operand.imm 0 ]);
  Func.append_block f b1;
  Func.append_block f b2;
  Func.append_block f b3;
  f

let test_func_fallthrough () =
  let f = mk_linear_func () in
  let b1 = Func.find_block_exn f "a" in
  check (Alcotest.option cs) "a falls to b" (Some "b")
    (Option.map (fun (b : Block.t) -> b.Block.label) (Func.fallthrough f b1));
  check (Alcotest.list cs) "successors of a" [ "b" ] (Func.successors f b1)

let test_func_successors_with_branch () =
  let f = mk_linear_func () in
  let b1 = Func.find_block_exn f "a" in
  let p = Reg.virt 9 Reg.Prd in
  Block.append b1 (Instr.create ~pred:p Opcode.Br ~srcs:[ Operand.Label "c" ]);
  check (Alcotest.slist cs compare) "branch + fallthrough" [ "b"; "c" ]
    (Func.successors f b1)

let test_func_predecessors () =
  let f = mk_linear_func () in
  let preds = Func.predecessors f in
  check (Alcotest.list cs) "preds of b" [ "a" ] (Hashtbl.find preds "b")

let test_remove_unreachable () =
  let f = mk_linear_func () in
  let dead = Block.create "dead" in
  Block.append dead (Instr.create Opcode.Br ~srcs:[ Operand.Label "a" ]);
  f.Func.blocks <- f.Func.blocks @ [ dead ];
  (* 'dead' gets no incoming edges but the last block ends in ret, so dead is
     unreachable *)
  Func.remove_unreachable f;
  check cb "dead removed" true (Func.find_block f "dead" = None);
  check ci "three blocks left" 3 (List.length f.Func.blocks)

let test_verify_catches_dangling () =
  let f = mk_linear_func () in
  let b1 = Func.find_block_exn f "a" in
  Block.append b1 (Instr.create ~pred:(Reg.virt 1 Reg.Prd) Opcode.Br ~srcs:[ Operand.Label "nope" ]);
  Alcotest.check_raises "dangling label rejected"
    (Verify.Ill_formed "t/a: branch to unknown label nope") (fun () ->
      Verify.check_func f)

let test_verify_catches_fallthrough_off_end () =
  let f = Func.create "t" [] in
  let b = Block.create "only" in
  Block.append b (Instr.create Opcode.Mov ~dsts:[ Reg.virt 1 Reg.Int ] ~srcs:[ Operand.imm 1 ]);
  Func.append_block f b;
  check cb "verify rejects" true
    (try
       Verify.check_func f;
       false
     with Verify.Ill_formed _ -> true)

(* A compare's two targets must be predicates. *)
let test_verify_catches_cmp_targets () =
  let rejects dsts =
    let f = mk_linear_func () in
    Block.append (Func.find_block_exn f "a")
      (Instr.create (Opcode.Cmp (Opcode.Eq, Opcode.Norm)) ~dsts
         ~srcs:[ Operand.imm 1; Operand.imm 1 ]);
    try
      Verify.check_func f;
      false
    with Verify.Ill_formed _ -> true
  in
  check cb "integer targets rejected" true (rejects [ Reg.virt 2 Reg.Int; Reg.virt 3 Reg.Int ]);
  check cb "one target rejected" true (rejects [ Reg.virt 2 Reg.Prd ]);
  check cb "predicate targets accepted" false (rejects [ Reg.virt 2 Reg.Prd; Reg.virt 3 Reg.Prd ])

(* --- Memimage ------------------------------------------------------------- *)

let test_memimage_rw () =
  let m = Memimage.create () in
  Memimage.map_range m 4096L 64;
  Memimage.write m 4096L 8 0x1122334455667788L;
  check Alcotest.int64 "read back" 0x1122334455667788L (Memimage.read m 4096L 8);
  Memimage.write m 4100L 1 0xffL;
  check cb "byte write visible in word" true (Memimage.read m 4096L 8 <> 0x1122334455667788L)

let test_memimage_sext32 () =
  let m = Memimage.create () in
  Memimage.map_range m 4096L 16;
  Memimage.write m 4096L 4 0xffffffffL;
  check Alcotest.int64 "32-bit reads sign-extend" (-1L) (Memimage.read m 4096L 4)

let test_memimage_classify () =
  let m = Memimage.create () in
  Memimage.map_range m 4096L 8;
  check cb "mapped" true (Memimage.classify m 4096L = Memimage.Ok);
  check cb "null page" true (Memimage.classify m 8L = Memimage.Null_page);
  check cb "unmapped" true (Memimage.classify m 0x999999L = Memimage.Unmapped)

(* --- Interp --------------------------------------------------------------- *)

let run_src ?(input = [||]) src =
  let p = Epic_frontend.Lower.compile_source src in
  Verify.check_program p;
  let code, out, _ = Interp.run p input in
  (code, String.trim out)

let test_interp_arith () =
  let _, out = run_src "int main() { print_int(2 + 3 * 4 - 6 / 2); return 0; }" in
  check cs "arith" "11" out

let test_interp_neg_mod () =
  let _, out = run_src "int main() { print_int(-7 % 3); print_int(-8 / 3); return 0; }" in
  check cs "C-style truncation" "-1\n-2" out

let test_interp_shifts () =
  let _, out =
    run_src "int main() { print_int(1 << 10); print_int(-16 >> 2); return 0; }"
  in
  check cs "shl and arithmetic shr" "1024\n-4" out

let test_interp_short_circuit () =
  let _, out =
    run_src
      {|
int g;
int bump() { g = g + 1; return 0; }
int main() {
  g = 0;
  if (0 && bump()) { g = 100; }
  if (1 || bump()) { g = g + 10; }
  print_int(g);
  return 0;
}
|}
  in
  check cs "&& and || short-circuit" "10" out

let test_interp_exit_code () =
  let code, _ = run_src "int main() { return 42; }" in
  check ci "exit code" 42 code;
  let code, _ = run_src "int main() { exit(7); return 1; }" in
  check ci "exit() wins" 7 code

let test_interp_recursion () =
  let _, out =
    run_src
      "int f(int n) { if (n < 2) { return n; } return f(n-1) + f(n-2); }\n\
       int main() { print_int(f(15)); return 0; }"
  in
  check cs "fib 15" "610" out

let test_interp_pointers () =
  let _, out =
    run_src
      {|
int main() {
  int *p; int *q;
  p = malloc(64);
  q = p + 2;
  *q = 99;
  print_int(p[2]);
  p[3] = *q + 1;
  print_int(*(p + 3));
  return 0;
}
|}
  in
  check cs "pointer arithmetic scales by 8" "99\n100" out

let test_interp_function_pointers () =
  let _, out =
    run_src
      {|
int double_it(int x) { return x * 2; }
int triple_it(int x) { return x * 3; }
int main() {
  int f;
  f = (int) &double_it;
  print_int((f)(21));
  f = (int) &triple_it;
  print_int((f)(7));
  return 0;
}
|}
  in
  check cs "indirect calls" "42\n21" out

let test_interp_floats () =
  let _, out =
    run_src
      {|
float scale;
int main() {
  float x; float y;
  scale = 2.5;
  x = 4.0;
  y = x * scale + 1.0;
  print_int((int) y);
  print_int((int) (y / 2.0));
  return 0;
}
|}
  in
  check cs "float arithmetic through globals" "11\n5" out

let test_interp_inputs () =
  let _, out =
    run_src ~input:[| 10L; 20L |]
      "int main() { print_int(input(0) + input(1)); print_int(input_len()); print_int(input(9)); return 0; }"
  in
  check cs "input vector" "30\n2\n0" out

let test_interp_memcpy_memset () =
  let _, out =
    run_src
      {|
int a[8];
int b[8];
int main() {
  int i;
  for (i = 0; i < 8; i = i + 1) { a[i] = i * i; }
  memcpy((int) &b[0], (int) &a[0], 64);
  print_int(b[7]);
  memset((int) &b[0], 0, 64);
  print_int(b[7]);
  return 0;
}
|}
  in
  check cs "memcpy/memset" "49\n0" out

let test_interp_spec_load_nat () =
  (* a speculative load from garbage yields NaT, which a guarded consumer
     never reads; interp must not fault *)
  Instr.reset_ids ();
  let p = Program.create () in
  let f = Func.create "main" [] in
  let bld = Builder.create f in
  ignore (Builder.start_block bld "entry");
  let d = Builder.fresh_int bld in
  ignore (Builder.load ~spec:Opcode.Spec_general bld d (Operand.imm 0x500000));
  ignore (Builder.call bld "print_int" [ Operand.imm 1 ]);
  Builder.ret bld [ Operand.imm 0 ];
  Program.add_func p f;
  Program.assign_addresses p;
  let code, out, st = Interp.run p [||] in
  check ci "no fault" 0 code;
  check cs "output" "1" (String.trim out);
  check ci "wild load counted" 1 st.Interp.wild_loads

let test_interp_fuel () =
  let src = "int main() { while (1) { } return 0; }" in
  let p = Epic_frontend.Lower.compile_source src in
  check cb "out of fuel raised" true
    (try
       ignore (Interp.run ~fuel:1000 p [||]);
       false
     with Interp.Out_of_fuel -> true)

(* Registers are renumbered densely per function: ids far apart share a
   small frame, and a register never written reads as zero (false for a
   predicate). *)
let test_interp_sparse_registers () =
  Instr.reset_ids ();
  let p = Program.create () in
  let f = Func.create "main" [] in
  let bld = Builder.create f in
  ignore (Builder.start_block bld "entry");
  let v5 = Reg.virt 5 Reg.Int and v5000 = Reg.virt 5000 Reg.Int in
  let vf = Reg.virt 4000 Reg.Flt and vp = Reg.virt 3000 Reg.Prd in
  Builder.movi bld v5 7;
  ignore (Builder.call bld "print_int" [ Operand.reg v5000 ]);
  Builder.add bld v5000 (Operand.reg v5) (Operand.imm 1);
  ignore (Builder.call bld "print_int" [ Operand.reg v5000 ]);
  let t = Reg.virt 6 Reg.Int in
  ignore (Builder.emit bld Opcode.Cvt_fi ~dsts:[ t ] ~srcs:[ Operand.reg vf ]);
  ignore (Builder.call bld "print_int" [ Operand.reg t ]);
  ignore (Builder.emit ~pred:vp bld Opcode.Br_call ~srcs:[ Operand.Sym "print_int"; Operand.imm 99 ]);
  Builder.ret bld [ Operand.imm 0 ];
  Program.add_func p f;
  let code, out, _ = Interp.run p [||] in
  check ci "exit" 0 code;
  check cs "unwritten registers read zero" "0\n8\n0" (String.trim out)

(* Every activation gets its own frame: the value computed before the
   recursive call must survive ten thousand nested activations. *)
let test_interp_deep_recursion () =
  let _, out =
    run_src
      "int f(int n) { int x; x = n * 2; if (n == 0) { return 0; } return f(n - 1) + x; }\n\
       int main() { print_int(f(10000)); return 0; }"
  in
  check cs "sum of 2n" "100010000" out

let test_program_func_addresses () =
  let p = Epic_frontend.Lower.compile_source "int f() { return 1; }\nint main() { return 0; }" in
  let a = Program.func_address p "f" in
  check (Alcotest.option cs) "round trip" (Some "f") (Program.func_at_address p a);
  check (Alcotest.option cs) "misaligned fails" None
    (Program.func_at_address p (Int64.add a 8L))

let suite =
  [
    ("reg equality", `Quick, test_reg_equality);
    ("reg stacked", `Quick, test_reg_stacked);
    ("reg printing", `Quick, test_reg_printing);
    ("reg set/map", `Quick, test_reg_set_map);
    ("reg compare order pin", `Quick, test_reg_compare_order);
    ("opcode classes", `Quick, test_opcode_classes);
    ("opcode may_fault", `Quick, test_opcode_may_fault);
    ("eval icmp", `Quick, test_eval_icmp);
    ("negate icmp", `Quick, test_negate_icmp);
    ("instr uses/defs", `Quick, test_instr_uses_defs);
    ("instr copy provenance", `Quick, test_instr_copy_provenance);
    ("instr branch target", `Quick, test_instr_branch_target);
    ("instr substitute", `Quick, test_instr_substitute);
    ("func fallthrough", `Quick, test_func_fallthrough);
    ("func successors with branch", `Quick, test_func_successors_with_branch);
    ("func predecessors", `Quick, test_func_predecessors);
    ("remove unreachable", `Quick, test_remove_unreachable);
    ("verify dangling label", `Quick, test_verify_catches_dangling);
    ("verify fallthrough off end", `Quick, test_verify_catches_fallthrough_off_end);
    ("memimage read/write", `Quick, test_memimage_rw);
    ("memimage 32-bit sext", `Quick, test_memimage_sext32);
    ("memimage classify", `Quick, test_memimage_classify);
    ("interp arithmetic", `Quick, test_interp_arith);
    ("interp negative div/mod", `Quick, test_interp_neg_mod);
    ("interp shifts", `Quick, test_interp_shifts);
    ("interp short circuit", `Quick, test_interp_short_circuit);
    ("interp exit codes", `Quick, test_interp_exit_code);
    ("interp recursion", `Quick, test_interp_recursion);
    ("interp pointers", `Quick, test_interp_pointers);
    ("interp function pointers", `Quick, test_interp_function_pointers);
    ("interp floats", `Quick, test_interp_floats);
    ("interp inputs", `Quick, test_interp_inputs);
    ("interp memcpy/memset", `Quick, test_interp_memcpy_memset);
    ("interp speculative NaT", `Quick, test_interp_spec_load_nat);
    ("interp fuel", `Quick, test_interp_fuel);
    ("interp sparse register ids", `Quick, test_interp_sparse_registers);
    ("interp deep recursion", `Quick, test_interp_deep_recursion);
    ("program function addresses", `Quick, test_program_func_addresses);
    ("verify cmp targets", `Quick, test_verify_catches_cmp_targets);
  ]
