(* Analysis tests: dominance, liveness, natural loops, call graph, profile
   collection, points-to and memory dependence. *)

open Epic_ir
open Epic_analysis

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cf = Alcotest.float 1e-6

(* Build the classic diamond:  entry -> (t | f) -> join -> ret *)
let diamond () =
  let f = Func.create "d" [] in
  let bld = Epic_ir.Builder.create f in
  ignore (Builder.start_block bld "entry");
  let r = Builder.fresh_int bld in
  Builder.movi bld r 1;
  ignore (Builder.cbr bld Opcode.Gt (Operand.reg r) (Operand.imm 0) "t");
  Builder.br bld "f";
  ignore (Builder.start_block bld "t");
  Builder.br bld "join";
  ignore (Builder.start_block bld "f");
  Builder.br bld "join";
  ignore (Builder.start_block bld "join");
  Builder.ret bld [ Operand.imm 0 ];
  f

let test_dominance_diamond () =
  let f = diamond () in
  let dom = Dominance.compute f in
  check cb "entry dominates all" true (Dominance.dominates dom "entry" "join");
  check cb "t does not dominate join" false (Dominance.dominates dom "t" "join");
  check cb "f does not dominate join" false (Dominance.dominates dom "f" "join");
  check cb "reflexive" true (Dominance.dominates dom "t" "t");
  check (Alcotest.option Alcotest.string) "idom of join is entry" (Some "entry")
    (Dominance.immediate_dominator dom "join")

let test_dominance_rpo () =
  let f = diamond () in
  let dom = Dominance.compute f in
  let rpo = Array.to_list (Dominance.rpo dom) in
  check Alcotest.(list string) "entry first" [ "entry" ] [ List.hd rpo ];
  check ci "all four blocks" 4 (List.length rpo)

let loop_func () =
  Epic_frontend.Lower.compile_source
    {|
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 10; i = i + 1) { s = s + i; }
  print_int(s);
  return 0;
}
|}

let test_liveness_loop () =
  let p = loop_func () in
  let f = Program.find_func_exn p "main" in
  let live = Liveness.compute f in
  (* the loop counter must be live into the header *)
  let header = List.find (fun (b : Block.t) -> b.Block.label <> "entry") f.Func.blocks in
  check cb "something is live into the loop" false
    (Reg.Set.is_empty (Liveness.live_in live header.Block.label))

let test_liveness_per_instr_side_exit () =
  (* the value defined before a side exit and used only at the exit target
     must be live at the branch *)
  let f = Func.create "t" [] in
  let bld = Builder.create f in
  ignore (Builder.start_block bld "a");
  let x = Builder.fresh_int bld in
  let p = Builder.fresh_pred bld and q = Builder.fresh_pred bld in
  Builder.movi bld x 5;
  Builder.cmp bld Opcode.Eq p q (Operand.imm 0) (Operand.imm 0);
  ignore (Epic_ir.Builder.emit ~pred:p bld Opcode.Br ~srcs:[ Operand.Label "exit" ]);
  Builder.movi bld x 6;
  Builder.ret bld [ Operand.reg x ];
  ignore (Builder.start_block bld "exit");
  Builder.ret bld [ Operand.reg x ];
  let live = Liveness.compute f in
  let a = Func.find_block_exn f "a" in
  let per = Liveness.per_instr live f a in
  (* before the redefinition (instr index 3 = the branch), x is live *)
  let before_branch = List.nth per 2 in
  check cb "x live at side exit" true (Reg.Set.mem x before_branch)

let test_natural_loops () =
  let p = loop_func () in
  let f = Program.find_func_exn p "main" in
  ignore (Profile.profile_and_annotate p [||]);
  let loops = Natural_loops.compute f in
  check ci "one loop" 1 (List.length loops.Natural_loops.loops);
  let l = List.hd loops.Natural_loops.loops in
  check cb "trip count about 11 headers per entry" true
    (l.Natural_loops.avg_trips > 10.0 && l.Natural_loops.avg_trips < 12.0)

let test_loop_exits () =
  let p = loop_func () in
  let f = Program.find_func_exn p "main" in
  let loops = Natural_loops.compute f in
  let l = List.hd loops.Natural_loops.loops in
  check cb "loop has an exit" true (Natural_loops.exits f l <> [])

let test_callgraph () =
  let p =
    Epic_frontend.Lower.compile_source
      {|
int leaf(int x) { return x + 1; }
int mid(int x) { return leaf(x) * 2; }
int main() { print_int(mid(3)); return 0; }
|}
  in
  let cg = Callgraph.compute p in
  check Alcotest.(list string) "main calls mid" [ "mid" ] (Callgraph.callees cg "main");
  check cb "main reaches leaf" true (Callgraph.reaches cg "main" "leaf");
  check cb "leaf does not reach main" false (Callgraph.reaches cg "leaf" "main")

let test_callgraph_recursion () =
  let p =
    Epic_frontend.Lower.compile_source
      "int f(int n) { if (n < 1) { return 0; } return f(n - 1); }\nint main() { return f(3); }"
  in
  let cg = Callgraph.compute p in
  check cb "self recursion detected" true (Callgraph.reaches cg "f" "f")

let test_profile_counts () =
  let p = loop_func () in
  let prof, code, _ = Profile.collect p [||] in
  check ci "clean run" 0 code;
  Profile.annotate p prof;
  let f = Program.find_func_exn p "main" in
  let max_w =
    List.fold_left (fun m (b : Block.t) -> max m b.Block.weight) 0. f.Func.blocks
  in
  check cb "loop body weight about 10" true (max_w >= 10. && max_w <= 12.)

let test_profile_branch_probs () =
  let p = loop_func () in
  ignore (Profile.profile_and_annotate p [||]);
  let f = Program.find_func_exn p "main" in
  let found = ref false in
  Func.iter_instrs f (fun i ->
      if i.Instr.op = Opcode.Br && i.Instr.pred <> None && i.Instr.attrs.Instr.weight > 5.
      then begin
        found := true;
        check cb "probability in [0,1]" true
          (i.Instr.attrs.Instr.taken_prob >= 0. && i.Instr.attrs.Instr.taken_prob <= 1.)
      end);
  check cb "a hot conditional branch exists" true !found

(* A branch and an [Instr.clone] of it share an id, so their counts merge
   into one key and both copies are annotated with the sum: the loop
   branch runs 4 times (3 taken), its clone once (not taken). *)
let test_profile_cloned_branch_merge () =
  Instr.reset_ids ();
  let p = Program.create () in
  let f = Func.create "main" [] in
  let bld = Builder.create f in
  ignore (Builder.start_block bld "entry");
  let i = Builder.fresh_int bld in
  Builder.movi bld i 0;
  ignore (Builder.start_block bld "loop");
  Builder.add bld i (Operand.reg i) (Operand.imm 1);
  let pt = Builder.fresh_pred bld and pf = Builder.fresh_pred bld in
  Builder.cmp bld Opcode.Lt pt pf (Operand.reg i) (Operand.imm 4);
  let br = Builder.emit ~pred:pt bld Opcode.Br ~srcs:[ Operand.Label "loop" ] in
  let tail = Builder.start_block bld "tail" in
  let qt = Builder.fresh_pred bld and qf = Builder.fresh_pred bld in
  Builder.cmp bld Opcode.Eq qt qf (Operand.reg i) (Operand.imm 99);
  let clone = Instr.clone br in
  clone.Instr.pred <- Some qt;
  clone.Instr.srcs <- [ Operand.Label "done" ];
  Block.append tail clone;
  ignore (Builder.start_block bld "done");
  Builder.ret bld [ Operand.imm 0 ];
  Program.add_func p f;
  let prof, code, _ = Profile.collect p [||] in
  check ci "clean run" 0 code;
  check cf "merged executions" 5. (Hashtbl.find prof.Profile.branch_exec br.Instr.id);
  check cf "merged taken" 3. (Hashtbl.find prof.Profile.branch_taken br.Instr.id);
  Profile.annotate p prof;
  List.iter
    (fun (b : Instr.t) ->
      check cf "weight is the merged count" 5. b.Instr.attrs.Instr.weight;
      check cf "probability is the merged ratio" 0.6 b.Instr.attrs.Instr.taken_prob)
    [ br; clone ]

(* Blocks the training run never enters are annotated with weight 0 (and
   their branches with probability 0), whatever they carried before. *)
let test_profile_unexecuted_blocks () =
  let p =
    Epic_frontend.Lower.compile_source
      {|
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 3; i = i + 1) {
    if (i > 100) { s = s + 7; while (s > 0) { s = s - 1; } }
    s = s + i;
  }
  print_int(s);
  return 0;
}
|}
  in
  let f = Program.find_func_exn p "main" in
  List.iter
    (fun (b : Block.t) ->
      b.Block.weight <- 42.;
      List.iter
        (fun (i : Instr.t) ->
          i.Instr.attrs.Instr.weight <- 42.;
          i.Instr.attrs.Instr.taken_prob <- 0.5)
        b.Block.instrs)
    f.Func.blocks;
  let prof = Profile.profile_and_annotate p [||] in
  let cold =
    List.filter
      (fun (b : Block.t) -> not (Hashtbl.mem prof.Profile.block_counts ("main", b.Block.label)))
      f.Func.blocks
  in
  check cb "some block never runs" true (cold <> []);
  List.iter
    (fun (b : Block.t) ->
      check cf (b.Block.label ^ " weight") 0. b.Block.weight;
      List.iter
        (fun (i : Instr.t) ->
          check cf "instr weight" 0. i.Instr.attrs.Instr.weight;
          if i.Instr.op = Opcode.Br then
            check cf "branch probability" 0. i.Instr.attrs.Instr.taken_prob)
        b.Block.instrs)
    cold;
  check cb "executed blocks keep positive weights" true
    (List.exists (fun (b : Block.t) -> b.Block.weight > 0.) f.Func.blocks)

let test_profile_indirect_targets () =
  let p =
    Epic_frontend.Lower.compile_source
      {|
int a() { return 1; }
int b() { return 2; }
int main() {
  int f; int i; int s;
  s = 0;
  for (i = 0; i < 10; i = i + 1) {
    if (i < 9) { f = (int) &a; } else { f = (int) &b; }
    s = s + (f)();
  }
  print_int(s);
  return 0;
}
|}
  in
  let prof, _, _ = Profile.collect p [||] in
  (* find the indirect call site *)
  let site = ref (-1) in
  Program.iter_instrs p (fun i ->
      if Instr.is_call i && Instr.callee i = None then site := i.Instr.id);
  check cb "site found" true (!site > 0);
  match Profile.dominant_target prof !site ~threshold:0.7 with
  | Some (t, frac) ->
      check Alcotest.string "dominant target" "a" t;
      check cb "fraction about 0.9" true (frac > 0.85 && frac < 0.95)
  | None -> Alcotest.fail "expected a dominant target"

let test_points_to_distinguishes_globals () =
  let p =
    Epic_frontend.Lower.compile_source
      {|
int g1[4];
int g2[4];
int main() {
  g1[0] = 1;
  g2[0] = 2;
  print_int(g1[0]);
  return 0;
}
|}
  in
  ignore (Points_to.analyze p);
  let stores = ref [] in
  Program.iter_instrs p (fun i -> if Instr.is_store i then stores := i :: !stores);
  match !stores with
  | [ s2; s1 ] ->
      check cb "distinct globals do not alias" false (Memdep.may_alias s1 s2)
  | _ -> Alcotest.fail "expected two stores"

let test_points_to_heap_sites () =
  let p =
    Epic_frontend.Lower.compile_source
      {|
int main() {
  int *a; int *b;
  a = malloc(16);
  b = malloc(16);
  a[0] = 1;
  b[0] = 2;
  print_int(a[0]);
  return 0;
}
|}
  in
  ignore (Points_to.analyze p);
  let stores = ref [] in
  Program.iter_instrs p (fun i -> if Instr.is_store i then stores := i :: !stores);
  match !stores with
  | [ s2; s1 ] -> check cb "distinct heap sites do not alias" false (Memdep.may_alias s1 s2)
  | _ -> Alcotest.fail "expected two stores"

let test_points_to_flow_through_copy () =
  let p =
    Epic_frontend.Lower.compile_source
      {|
int g[4];
int main() {
  int *a; int *b;
  a = g;
  b = a;
  b[1] = 5;
  print_int(g[1]);
  return 0;
}
|}
  in
  ignore (Points_to.analyze p);
  let tagged = ref 0 in
  Program.iter_instrs p (fun i ->
      if Instr.is_store i then
        match i.Instr.attrs.Instr.mem_tag with Some _ -> incr tagged | None -> ());
  check cb "store through copy is tagged" true (!tagged >= 1)

let test_points_to_disabled () =
  let p = Epic_frontend.Lower.compile_source "int g;\nint main() { g = 1; print_int(g); return 0; }" in
  ignore (Points_to.analyze ~enabled:false p);
  Program.iter_instrs p (fun i ->
      if Instr.is_mem i then
        check cb "all tags unknown when disabled" true (i.Instr.attrs.Instr.mem_tag = None))

let test_memdep_rules () =
  let mk op tag =
    let i =
      match op with
      | `Ld -> Instr.create (Opcode.Ld (Opcode.B8, Opcode.Nonspec)) ~dsts:[ Reg.virt 1 Reg.Int ] ~srcs:[ Operand.imm 0 ]
      | `St -> Instr.create (Opcode.St Opcode.B8) ~srcs:[ Operand.imm 0; Operand.imm 0 ]
    in
    i.Instr.attrs.Instr.mem_tag <- tag;
    i
  in
  check cb "load-load never ordered" false
    (Memdep.must_order (mk `Ld (Some [ 1 ])) (mk `Ld (Some [ 1 ])));
  check cb "store-load same tag ordered" true
    (Memdep.must_order (mk `St (Some [ 1 ])) (mk `Ld (Some [ 1 ])));
  check cb "store-load disjoint tags free" false
    (Memdep.must_order (mk `St (Some [ 1 ])) (mk `Ld (Some [ 2 ])));
  check cb "unknown aliases everything" true
    (Memdep.must_order (mk `St None) (mk `Ld (Some [ 9 ])))

let test_pred_relations () =
  let b = Block.create "h" in
  let pt = Reg.virt 1 Reg.Prd and pf = Reg.virt 2 Reg.Prd in
  let other = Reg.virt 3 Reg.Prd and other2 = Reg.virt 4 Reg.Prd in
  Block.append b
    (Instr.create (Opcode.Cmp (Opcode.Lt, Opcode.Unc)) ~dsts:[ pt; pf ]
       ~srcs:[ Operand.imm 1; Operand.imm 2 ]);
  Block.append b
    (Instr.create (Opcode.Cmp (Opcode.Gt, Opcode.Unc)) ~dsts:[ other; other2 ]
       ~srcs:[ Operand.imm 1; Operand.imm 2 ]);
  let rel = Pred_relations.of_block b in
  check cb "complements disjoint" true (Pred_relations.disjoint rel pt pf);
  check cb "unrelated not disjoint" false (Pred_relations.disjoint rel pt other);
  check cb "self not disjoint" false (Pred_relations.disjoint rel pt pt)

let test_geomean () =
  check cf "geomean of 2 and 8" 4.0 (Epic_core.Metrics.geomean [ 2.; 8. ])

let suite =
  [
    ("dominance diamond", `Quick, test_dominance_diamond);
    ("dominance rpo", `Quick, test_dominance_rpo);
    ("liveness loop", `Quick, test_liveness_loop);
    ("liveness per-instr side exit", `Quick, test_liveness_per_instr_side_exit);
    ("natural loops + trip counts", `Quick, test_natural_loops);
    ("loop exits", `Quick, test_loop_exits);
    ("callgraph", `Quick, test_callgraph);
    ("callgraph recursion", `Quick, test_callgraph_recursion);
    ("profile counts", `Quick, test_profile_counts);
    ("profile branch probabilities", `Quick, test_profile_branch_probs);
    ("profile indirect targets", `Quick, test_profile_indirect_targets);
    ("profile merges cloned branch counts", `Quick, test_profile_cloned_branch_merge);
    ("profile unexecuted blocks weigh zero", `Quick, test_profile_unexecuted_blocks);
    ("points-to distinct globals", `Quick, test_points_to_distinguishes_globals);
    ("points-to heap sites", `Quick, test_points_to_heap_sites);
    ("points-to copy flow", `Quick, test_points_to_flow_through_copy);
    ("points-to disabled", `Quick, test_points_to_disabled);
    ("memdep rules", `Quick, test_memdep_rules);
    ("predicate relations", `Quick, test_pred_relations);
    ("geomean", `Quick, test_geomean);
  ]
