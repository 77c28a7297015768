(* Simulator tests: caches, TLB, branch predictor, register stack engine,
   cycle accounting, and machine-vs-interpreter differential execution. *)

open Epic_sim

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* --- cache ---------------------------------------------------------------- *)

let test_cache_hit_after_miss () =
  let c = Cache.create ~name:"t" ~size:1024 ~line:64 ~assoc:2 in
  check cb "first access misses" false (Cache.access_line c (Cache.line_of c 0L));
  check cb "second access hits" true (Cache.access_line c (Cache.line_of c 0L));
  check cb "same line hits" true (Cache.access_line c (Cache.line_of c 63L));
  check cb "next line misses" false (Cache.access_line c (Cache.line_of c 64L))

let test_cache_lru_eviction () =
  (* 2-way set: three distinct lines mapping to the same set evict LRU *)
  let c = Cache.create ~name:"t" ~size:1024 ~line:64 ~assoc:2 in
  (* set count = 1024/(64*2) = 8; stride of 512 bytes keeps the same set *)
  ignore (Cache.access_line c (Cache.line_of c 0L));
  ignore (Cache.access_line c (Cache.line_of c 512L));
  ignore (Cache.access_line c (Cache.line_of c 1024L));
  check cb "first way evicted" false (Cache.probe c 0L);
  check cb "second way survives" true (Cache.probe c 512L)

let test_cache_capacity () =
  let c = Cache.create ~name:"t" ~size:1024 ~line:64 ~assoc:2 in
  (* touch 2 KiB (32 lines): at most 16 can survive *)
  for k = 0 to 31 do
    ignore (Cache.access_line c (Cache.line_of c (Int64.of_int (k * 64))))
  done;
  let resident = ref 0 in
  for k = 0 to 31 do
    if Cache.probe c (Int64.of_int (k * 64)) then incr resident
  done;
  check ci "residency bounded by capacity" 16 !resident

let test_cache_counters () =
  let c = Cache.create ~name:"t" ~size:1024 ~line:64 ~assoc:2 in
  ignore (Cache.access_line c (Cache.line_of c 0L));
  ignore (Cache.access_line c (Cache.line_of c 0L));
  ignore (Cache.access_line c (Cache.line_of c 4096L));
  check ci "accesses" 3 c.Cache.accesses;
  check ci "misses" 2 c.Cache.misses;
  check cb "miss rate" true (abs_float (Cache.miss_rate c -. (2. /. 3.)) < 1e-9)

(* --- tlb -------------------------------------------------------------------- *)

let test_tlb () =
  let t = Tlb.create ~entries:2 () in
  check cb "miss before fill" false (Tlb.lookup_page t (Tlb.page_of 4096L));
  Tlb.fill_page t (Tlb.page_of 4096L);
  check cb "hit after fill" true (Tlb.lookup_page t (Tlb.page_of 4096L));
  check cb "same page different offset hits" true (Tlb.lookup_page t (Tlb.page_of 4097L));
  Tlb.fill_page t (Tlb.page_of 8192L);
  Tlb.fill_page t (Tlb.page_of 16384L);
  (* capacity 2: the LRU entry (4096, refreshed above...) may be evicted *)
  check ci "two entries max" 2 t.Tlb.entries

(* --- branch predictor -------------------------------------------------------- *)

let test_branch_predictor_learns () =
  let bp = Branch_pred.create () in
  (* always-taken branch: after warmup, prediction is always correct *)
  for _ = 1 to 8 do
    ignore (Branch_pred.predict_and_update bp 42 true)
  done;
  let correct = ref 0 in
  for _ = 1 to 100 do
    if Branch_pred.predict_and_update bp 42 true then incr correct
  done;
  check ci "steady-state always-taken perfect" 100 !correct

let test_branch_predictor_alternating () =
  let bp = Branch_pred.create ~history_bits:4 () in
  (* strict alternation is captured by history after warmup *)
  let outcomes = List.init 400 (fun k -> k mod 2 = 0) in
  let correct = ref 0 and total = ref 0 in
  List.iteri
    (fun k o ->
      let c = Branch_pred.predict_and_update bp 7 o in
      if k > 100 then begin
        incr total;
        if c then incr correct
      end)
    outcomes;
  check cb "alternation learned" true (float_of_int !correct /. float_of_int !total > 0.9)

let test_branch_predictor_rate () =
  let bp = Branch_pred.create () in
  Branch_pred.record_unconditional bp;
  Branch_pred.record_unconditional bp;
  check cb "unconditional never mispredicts" true (Branch_pred.rate bp = 1.0)

(* --- RSE --------------------------------------------------------------------- *)

let test_rse_no_spill_when_shallow () =
  let r = Rse.create () in
  let cost = Rse.on_call r 20 in
  let cost2 = Rse.on_call r 20 in
  check ci "no spill below capacity" 0 (cost + cost2);
  check ci "no fill either" 0 (Rse.on_return r);
  ignore (Rse.on_return r)

let test_rse_spills_on_deep_recursion () =
  let r = Rse.create () in
  let total_spill = ref 0 in
  for _ = 1 to 10 do
    total_spill := !total_spill + Rse.on_call r 20
  done;
  (* 200 stacked registers demanded, 96 physical: spills required *)
  check cb "spills happened" true (!total_spill > 0);
  check cb "spill count matches overflow" true (r.Rse.spills >= 200 - 96);
  (* returning refills the callers *)
  let total_fill = ref 0 in
  for _ = 1 to 10 do
    total_fill := !total_fill + Rse.on_return r
  done;
  check cb "fills happened" true (!total_fill > 0);
  check ci "stack empty at the end" 0 r.Rse.resident_total

(* The register stack engine as it kept its frames in a list (innermost
   first), spilling by a walk to the oldest frame: the reference the
   array model must reproduce call for call. *)
module Rse_list = struct
  type frame = { size : int; mutable resident : int }

  type t = {
    physical : int;
    cost_per_reg : int;
    mutable frames : frame list;
    mutable resident_total : int;
    mutable spills : int;
    mutable fills : int;
  }

  let create ~physical ~cost_per_reg =
    { physical; cost_per_reg; frames = []; resident_total = 0; spills = 0; fills = 0 }

  let on_call t size =
    t.frames <- { size; resident = size } :: t.frames;
    t.resident_total <- t.resident_total + size;
    let spilled = ref 0 in
    let take_from fr =
      let take = min fr.resident (t.resident_total - t.physical) in
      fr.resident <- fr.resident - take;
      t.resident_total <- t.resident_total - take;
      spilled := !spilled + take
    in
    let rec spill_oldest = function
      | [] -> ()
      | _ when t.resident_total <= t.physical -> ()
      | [ oldest ] -> take_from oldest
      | x :: tl ->
          spill_oldest tl;
          if t.resident_total > t.physical then take_from x
    in
    (match t.frames with _cur :: rest -> spill_oldest rest | [] -> ());
    t.spills <- t.spills + !spilled;
    !spilled * t.cost_per_reg

  let on_return t =
    match t.frames with
    | [] -> 0
    | cur :: rest ->
        t.frames <- rest;
        t.resident_total <- t.resident_total - cur.resident;
        let fills =
          match rest with
          | caller :: _ ->
              let need = caller.size - caller.resident in
              caller.resident <- caller.size;
              t.resident_total <- t.resident_total + need;
              need
          | [] -> 0
        in
        t.fills <- t.fills + fills;
        fills * t.cost_per_reg

  let copy t =
    { t with frames = List.map (fun f -> { size = f.size; resident = f.resident }) t.frames }
end

(* Random call, return and checkpoint-copy sequences on a small register
   file: every call's spill cycles, every return's fill cycles and the
   running counts agree with the list model.  After a copy the run goes on
   with the copy while the original takes a deep call, so a copy that
   shared state with its original would drift. *)
let qcheck_rse_matches_list_model =
  QCheck.Test.make ~count:300 ~name:"RSE matches the list model"
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 8 96) (int_range 1 4)
           (list_size (int_range 0 200)
              (frequency
                 [ (5, map (fun n -> `Call n) (int_range 0 40)); (4, return `Return); (1, return `Copy) ]))))
    (fun (physical, cost_per_reg, ops) ->
      let r = ref (Rse.create ~physical ~cost_per_reg ()) in
      let l = ref (Rse_list.create ~physical ~cost_per_reg) in
      List.for_all
        (fun op ->
          let same_cycles =
            match op with
            | `Call n -> Rse.on_call !r n = Rse_list.on_call !l n
            | `Return -> Rse.on_return !r = Rse_list.on_return !l
            | `Copy ->
                let r' = Rse.copy !r and l' = Rse_list.copy !l in
                ignore (Rse.on_call !r physical);
                ignore (Rse_list.on_call !l physical);
                r := r';
                l := l';
                true
          in
          same_cycles
          && !r.Rse.spills = !l.Rse_list.spills
          && !r.Rse.fills = !l.Rse_list.fills
          && !r.Rse.resident_total = !l.Rse_list.resident_total)
        ops)

(* --- accounting ----------------------------------------------------------------- *)

let test_accounting_totals () =
  let a = Accounting.create () in
  Accounting.charge a "f" Accounting.Unstalled 10;
  Accounting.charge a "f" Accounting.Kernel 5;
  Accounting.charge a "g" Accounting.Unstalled 3;
  check (Alcotest.float 1e-9) "total" 18. (Accounting.total a);
  check (Alcotest.float 1e-9) "per-func" 15. (Accounting.func_total a "f");
  check (Alcotest.float 1e-9) "planned excludes kernel" 13. (Accounting.planned a)

let test_accounting_category_index_roundtrip () =
  List.iter
    (fun c -> check cb "index unique" true (Accounting.index c >= 0 && Accounting.index c < 9))
    Accounting.all_categories;
  check ci "nine categories" 9 (List.length Accounting.all_categories)

(* --- machine differential --------------------------------------------------------- *)

let compile_and_compare ?(input = [||]) ?(config = Epic_core.Config.o_ns) src =
  let p0 = Epic_frontend.Lower.compile_source src in
  let c0, o0, _ = Epic_ir.Interp.run p0 input in
  let compiled = Epic_core.Driver.compile ~config ~train:input src in
  let c1, o1, st = Epic_core.Driver.run compiled input in
  check (Alcotest.pair ci Alcotest.string) "machine matches interpreter" (c0, o0) (c1, o1);
  st

let test_machine_matches_interp_basic () =
  ignore
    (compile_and_compare
       "int main() { int i; int s; s = 0; for (i = 0; i < 100; i = i + 1) { s = s + i * i; } print_int(s); return 0; }")

let test_machine_matches_interp_calls () =
  ignore
    (compile_and_compare
       {|
int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
int main() { print_int(fib(12)); return 0; }
|})

let test_machine_matches_interp_memory () =
  ignore
    (compile_and_compare ~input:[| 3L |]
       {|
int t[64];
int main() {
  int i; int *p;
  p = malloc(256);
  for (i = 0; i < 32; i = i + 1) { p[i] = i * input(0); t[i] = p[i] + 1; }
  print_int(p[31] + t[31]);
  return 0;
}
|})

let test_machine_matches_interp_floats () =
  ignore
    (compile_and_compare
       {|
float acc;
int main() {
  int i;
  acc = 0.5;
  for (i = 0; i < 10; i = i + 1) { acc = acc * 1.5 + 0.25; }
  print_int((int) acc);
  return 0;
}
|})

let test_machine_accounting_sums_to_cycles () =
  let st =
    compile_and_compare ~config:Epic_core.Config.ilp_cs
      "int main() { int i; int s; s = 0; for (i = 0; i < 200; i = i + 1) { if (i % 3 == 0) { s = s + i; } } print_int(s); return 0; }"
  in
  (* all cycles are accounted: total of the categories is the clock *)
  check cb "accounting total positive" true (Accounting.total st.Machine.acc > 0.);
  check (Alcotest.float 0.) "clock equals accounted total" (float_of_int st.Machine.cycle)
    (Accounting.total st.Machine.acc)

let test_machine_counts_branches () =
  let st =
    compile_and_compare
      "int main() { int i; for (i = 0; i < 50; i = i + 1) { } print_int(i); return 0; }"
  in
  check cb "branches retired" true (st.Machine.c.Machine.branches >= 50)

let test_machine_icache_warm () =
  let st =
    compile_and_compare
      "int main() { int i; int s; s = 0; for (i = 0; i < 1000; i = i + 1) { s = s + 1; } print_int(s); return 0; }"
  in
  (* a tiny loop must be essentially free of I-cache misses after warmup *)
  check cb "few L1I misses" true (st.Machine.l1i.Cache.misses < 20)

let test_machine_dcache_misses_on_big_footprint () =
  let st =
    compile_and_compare
      {|
int main() {
  int i; int s; int *p;
  p = malloc(65536);
  s = 0;
  for (i = 0; i < 8192; i = i + 1) { p[i] = i; }
  for (i = 0; i < 8192; i = i + 1) { s = s + p[(i * 1031) % 8192]; }
  print_int(s);
  return 0;
}
|}
  in
  check cb "data misses on 64 KiB footprint" true (st.Machine.l1d.Cache.misses > 100)

let test_machine_wild_load_kernel_time () =
  (* directly run a hand-marked speculative wild load through the machine *)
  let open Epic_ir in
  Instr.reset_ids ();
  let p = Program.create () in
  let f = Func.create "main" [] in
  let bld = Builder.create f in
  ignore (Builder.start_block bld "entry");
  let d = Builder.fresh_int bld in
  let ld = Builder.load ~spec:Opcode.Spec_general bld d (Operand.imm 0x600000) in
  ld.Instr.attrs.Instr.speculated <- true;
  ignore (Builder.call bld "print_int" [ Operand.imm 1 ]);
  Builder.ret bld [ Operand.imm 0 ];
  Program.add_func p f;
  Program.assign_addresses p;
  ignore (Epic_sched.Regalloc.run p);
  Epic_sched.List_sched.run ~desc:Epic_mach.Machine_desc.itanium2 p;
  let layout = Epic_sched.Layout.build ~desc:Epic_mach.Machine_desc.itanium2 p in
  let _, _, st = Machine.run p layout [||] in
  check ci "one wild load" 1 st.Machine.c.Machine.wild_loads;
  check cb "kernel time charged" true (Accounting.get st.Machine.acc Accounting.Kernel > 0.)

let test_machine_fuel () =
  (* the GCC-like pipeline does not profile, so compiling a non-terminating
     program is fine; the machine must then hit its own fuel limit *)
  let compiled =
    Epic_core.Driver.compile ~config:Epic_core.Config.gcc_like ~train:[||]
      "int main() { while (1) { } return 0; }"
  in
  check cb "machine out of fuel" true
    (try
       ignore (Epic_core.Driver.run ~fuel:2000 compiled [||]);
       false
     with Machine.Out_of_fuel -> true)

let suite =
  [
    ("cache hit after miss", `Quick, test_cache_hit_after_miss);
    ("cache LRU eviction", `Quick, test_cache_lru_eviction);
    ("cache capacity", `Quick, test_cache_capacity);
    ("cache counters", `Quick, test_cache_counters);
    ("tlb", `Quick, test_tlb);
    ("branch predictor learns", `Quick, test_branch_predictor_learns);
    ("branch predictor alternation", `Quick, test_branch_predictor_alternating);
    ("branch predictor rate", `Quick, test_branch_predictor_rate);
    ("rse shallow", `Quick, test_rse_no_spill_when_shallow);
    ("rse deep recursion", `Quick, test_rse_spills_on_deep_recursion);
    QCheck_alcotest.to_alcotest qcheck_rse_matches_list_model;
    ("accounting totals", `Quick, test_accounting_totals);
    ("accounting categories", `Quick, test_accounting_category_index_roundtrip);
    ("machine vs interp: basic", `Quick, test_machine_matches_interp_basic);
    ("machine vs interp: calls", `Quick, test_machine_matches_interp_calls);
    ("machine vs interp: memory", `Quick, test_machine_matches_interp_memory);
    ("machine vs interp: floats", `Quick, test_machine_matches_interp_floats);
    ("machine accounting sums", `Quick, test_machine_accounting_sums_to_cycles);
    ("machine branch counting", `Quick, test_machine_counts_branches);
    ("machine icache warm loop", `Quick, test_machine_icache_warm);
    ("machine dcache misses", `Quick, test_machine_dcache_misses_on_big_footprint);
    ("machine wild load kernel", `Quick, test_machine_wild_load_kernel_time);
    ("machine fuel", `Quick, test_machine_fuel);
  ]
