(* The ISA rulebook, pinned in both engines.  Each case is a hand-built
   program whose expected output comes from the modelled IA-64 rules —
   shift counts taken mod 64, compare types, NaT deferral on each page
   class, ALAT invalidation, speculation-check recovery and the runtime
   intrinsics — not from either engine.  Every case runs through the
   reference interpreter and, after register allocation, list scheduling
   and layout, through the machine simulator; both must produce the
   expected output and agree on the counters the case names. *)

open Epic_ir
module Machine = Epic_sim.Machine

(* --- programs ------------------------------------------------------------ *)

let r x = Operand.Reg x
let imm = Operand.imm
let int_reg n = Reg.phys n Reg.Int
let flt_reg n = Reg.phys n Reg.Flt
let call bld name args = ignore (Builder.call bld name args)
let print bld x = call bld "print_int" [ r x ]

(* [base + off] in a fresh register. *)
let addr bld base off =
  let d = Builder.fresh_int bld in
  Builder.add bld d base (imm off);
  d

let stack_slot bld off = addr bld (r Reg.sp) off

let movi bld v =
  let d = Builder.fresh_int bld in
  Builder.movi bld d v;
  d

let load ?size ?spec bld a =
  let d = Builder.fresh_int bld in
  ignore (Builder.load ?size ?spec bld d a);
  d

let store ?size bld a v = ignore (Builder.store ?size bld a v)

(* Print 1 when [x] is NaT, 0 otherwise, without consuming it: an
   unconditional compare with a NaT input clears both targets. *)
let print_is_nat bld x =
  let pt = Builder.fresh_pred bld and pf = Builder.fresh_pred bld in
  ignore
    (Builder.emit bld (Opcode.Cmp (Opcode.Eq, Opcode.Unc)) ~dsts:[ pt; pf ] ~srcs:[ r x; r x ]);
  let t = movi bld 1 in
  ignore (Builder.emit bld ~pred:pt Opcode.Mov ~dsts:[ t ] ~srcs:[ imm 0 ]);
  print bld t

(* A NaT integer: a general-speculative load of an unmapped page. *)
let unmapped = 0x500000

let nat_reg bld = load ~spec:Opcode.Spec_general bld (imm unmapped)

let chka bld d a = ignore (Builder.emit bld (Opcode.Chka Opcode.B8) ~dsts:[] ~srcs:[ r d; a ])
let chks bld d a = ignore (Builder.emit bld (Opcode.Chk Opcode.B8) ~dsts:[] ~srcs:[ r d; a ])

(* A program of [main] around [body], plus a function [callee] around
   [callee_body] when given, register-allocated, scheduled and laid out. *)
let build ?callee_body body =
  Instr.reset_ids ();
  let p = Program.create () in
  let func name body =
    let f = Func.create name [] in
    let bld = Builder.create f in
    ignore (Builder.start_block bld "entry");
    body bld;
    Builder.ret bld [ imm 0 ];
    Program.add_func p f
  in
  func "main" body;
  Option.iter (func "callee") callee_body;
  Program.assign_addresses p;
  ignore (Epic_sched.Regalloc.run p);
  Epic_sched.List_sched.run ~desc:Epic_mach.Machine_desc.itanium2 p;
  (p, Epic_sched.Layout.build ~desc:Epic_mach.Machine_desc.itanium2 p)

(* --- the engines ---------------------------------------------------------- *)

type outcome =
  | Ran of { code : int; out : string; nat : int; recoveries : int }
  | Faulted of string

let interp p input =
  match Interp.run p input with
  | code, out, st ->
      Ran { code; out; nat = st.Interp.nat_faults; recoveries = st.Interp.alat_recoveries }
  | exception Interp.Fault m -> Faulted m

(* The machine's clock must equal its accounted cycles: every charge is
   paired with a clock advance. *)
let machine p layout input =
  match Machine.run p layout input with
  | code, out, st ->
      let c = st.Machine.c in
      Alcotest.(check (float 0.)) "clock = accounted cycles"
        (Epic_sim.Accounting.total st.Machine.acc) (float_of_int st.Machine.cycle);
      Ran { code; out; nat = c.Machine.nat_consumed; recoveries = c.Machine.chk_recoveries }
  | exception Machine.Machine_fault m -> Faulted m

(* --- cases ---------------------------------------------------------------- *)

(* What a case expects: [Out (code, output)], or a fatal fault.  [nat] is
   the NaT consumptions both engines count; [recoveries] the chk.a
   recoveries (the machine's count includes chk.s, so cases naming it use
   no chk.s). *)
type expect = Out of int * string | Fault

type case = {
  name : string;
  input : int64 array;
  body : Builder.t -> unit;
  expect : expect;
  nat : int option;
  recoveries : int option;
  callee_body : (Builder.t -> unit) option;
}

let case ?(input = [||]) ?nat ?recoveries ?(code = 0) ?callee_body name out body =
  { name; input; body; expect = Out (code, out); nat; recoveries; callee_body }

let faults name body =
  { name; input = [||]; body; expect = Fault; nat = None; recoveries = None; callee_body = None }

let lines l = String.concat "" (List.map (fun s -> s ^ "\n") l)

(* Shifts: the count is the low six bits of the second operand, in the
   register-register and register-immediate forms alike. *)
let shifts =
  case "shift counts are taken mod 64"
    (lines
       [ "2"; "2"; "-9223372036854775808"; "15"; "-4"; "-16"; "-1"; "1"; "-9223372036854775808" ])
    (fun bld ->
      let one = movi bld 1 and m1 = movi bld (-1) and m16 = movi bld (-16) in
      let c65 = movi bld 65 and c64 = movi bld 64 and c127 = movi bld 127 in
      let op o a b =
        let d = Builder.fresh_int bld in
        Builder.binop bld o d a b;
        print bld d
      in
      op Opcode.Shl (r one) (imm 65);
      op Opcode.Shl (r one) (r c65);
      op Opcode.Shl (r one) (imm (-1));
      op Opcode.Shr (r m1) (imm 60);
      op Opcode.Sra (r m16) (imm 2);
      op Opcode.Shr (r m16) (r c64);
      op Opcode.Sra (r m16) (imm 63);
      op Opcode.Shr (r m1) (r c127);
      op Opcode.Shl (r one) (r c127))

(* Sign extension: sxt copies bit 7 (sxt1) or bit 31 (sxt4) upwards; a
   4-byte load sign-extends, a 1-byte load zero-extends. *)
let sign_extension =
  case "sign extension"
    (lines [ "-128"; "127"; "-2147483648"; "2147483647"; "-1"; "255"; "-1" ])
    (fun bld ->
      let sxt sz v =
        let a = movi bld v and d = Builder.fresh_int bld in
        ignore (Builder.emit bld (Opcode.Sxt sz) ~dsts:[ d ] ~srcs:[ r a ]);
        print bld d
      in
      sxt Opcode.B1 0x80;
      sxt Opcode.B1 0x17f;
      sxt Opcode.B4 0x8000_0000;
      sxt Opcode.B4 0x1_7fff_ffff;
      let a = stack_slot bld 16 in
      store bld (r a) (imm (-1));
      print bld (load ~size:Opcode.B4 bld (r a));
      print bld (load ~size:Opcode.B1 bld (r a));
      print bld (load bld (r a)))

(* Compares.  The targets start as (1, 0); each compare then runs with an
   outcome true (4 < 5), false (5 < 4) and NaT, and prints both targets.
   Under a true guard: norm writes (outcome, not outcome) and clears both
   on NaT; unc does the same; or-form sets both on a true outcome and
   leaves them otherwise.  Under a false guard only unc writes: it clears
   both. *)
let compare_case ct guard want =
  case
    (Printf.sprintf "cmp.lt%s under a %b guard" (Opcode.ctype_suffix ct) guard)
    want ~nat:0
    (fun bld ->
      let four = movi bld 4 and five = movi bld 5 in
      let n = nat_reg bld in
      let gt = Builder.fresh_pred bld and gf = Builder.fresh_pred bld in
      Builder.cmp bld Opcode.Eq gt gf (r four) (imm 4);
      List.iter
        (fun (x, y) ->
          let pt = Builder.fresh_pred bld and pf = Builder.fresh_pred bld in
          Builder.cmp bld Opcode.Eq pt pf (r four) (r four);
          ignore
            (Builder.emit bld ~pred:(if guard then gt else gf)
               (Opcode.Cmp (Opcode.Lt, ct)) ~dsts:[ pt; pf ] ~srcs:[ r x; r y ]);
          let t = movi bld 0 and f = movi bld 0 in
          ignore (Builder.emit bld ~pred:pt Opcode.Mov ~dsts:[ t ] ~srcs:[ imm 1 ]);
          ignore (Builder.emit bld ~pred:pf Opcode.Mov ~dsts:[ f ] ~srcs:[ imm 1 ]);
          print bld t;
          print bld f)
        [ (four, five); (five, four); (n, four) ])

let compares =
  [
    compare_case Opcode.Norm true (lines [ "1"; "0"; "0"; "1"; "0"; "0" ]);
    compare_case Opcode.Norm false (lines [ "1"; "0"; "1"; "0"; "1"; "0" ]);
    compare_case Opcode.Unc true (lines [ "1"; "0"; "0"; "1"; "0"; "0" ]);
    compare_case Opcode.Unc false (lines [ "0"; "0"; "0"; "0"; "0"; "0" ]);
    compare_case Opcode.Orform true (lines [ "1"; "1"; "1"; "0"; "1"; "0" ]);
    compare_case Opcode.Orform false (lines [ "1"; "0"; "1"; "0"; "1"; "0" ]);
  ]

(* Speculative loads on each page class.  A mapped page loads for every
   kind (a sentinel load may defer early, so its check recovers the value);
   the NULL page and an unmapped page fault a non-speculative or advanced
   load and make a control-speculative load's destination NaT. *)
let spec_loads =
  let kinds =
    [
      ("ld", Opcode.Nonspec);
      ("ld.s general", Opcode.Spec_general);
      ("ld.s sentinel", Opcode.Spec_sentinel);
      ("ld.a", Opcode.Spec_advanced);
    ]
  in
  List.concat_map
    (fun (kname, spec) ->
      let defers = spec = Opcode.Spec_general || spec = Opcode.Spec_sentinel in
      let on_page page a =
        let name = Printf.sprintf "%s on %s" kname page in
        let body bld = print_is_nat bld (load ~spec bld (imm a)) in
        if defers then case name "1\n" ~nat:0 body else faults name body
      in
      [
        case (kname ^ " on a mapped page") "42\n" ~nat:0 (fun bld ->
            let a = stack_slot bld 16 in
            store bld (r a) (imm 42);
            let d = load ~spec bld (r a) in
            if spec = Opcode.Spec_sentinel then chks bld d (r a);
            print bld d);
        on_page "the NULL page" 8;
        on_page "an unmapped page" unmapped;
      ])
    kinds

(* ld.a / st / chk.a at [A]: an 8-byte entry [A, A+8) is invalidated by a
   store that overlaps it, and survives a disjoint one — the recovery
   reloads the stored bytes. *)
let alat_case name ~store_off ~size ~recoveries want =
  case name want ~nat:0 ~recoveries (fun bld ->
      let a = stack_slot bld 16 in
      store bld (r a) (imm 1);
      let d = load ~spec:Opcode.Spec_advanced bld (r a) in
      store ~size bld (r (addr bld (r a) store_off)) (imm 3);
      chka bld d (r a);
      print bld d)

let alat =
  [
    alat_case "ALAT: a store overlapping the entry's last bytes" ~store_off:4
      ~size:Opcode.B4 ~recoveries:1 "12884901889\n";
    alat_case "ALAT: a one-byte store inside the entry" ~store_off:7 ~size:Opcode.B1
      ~recoveries:1 "216172782113783809\n";
    alat_case "ALAT: a store just past the entry" ~store_off:8 ~size:Opcode.B8
      ~recoveries:0 "1\n";
    alat_case "ALAT: a store just below the entry" ~store_off:(-8) ~size:Opcode.B8
      ~recoveries:0 "1\n";
    case "ALAT: a call flushes the entries" (lines [ "7"; "1" ]) ~nat:0 ~recoveries:1
      (fun bld ->
        let a = stack_slot bld 16 in
        store bld (r a) (imm 1);
        let d = load ~spec:Opcode.Spec_advanced bld (r a) in
        call bld "print_int" [ imm 7 ];
        chka bld d (r a);
        print bld d);
    (* An integer and a float register of the same number hold separate
       entries: the store to A invalidates f14's, and r14's (at B) does not
       stand in for it. *)
    case "ALAT: r14 and f14 hold separate entries" (lines [ "222"; "333" ]) ~nat:0
      ~recoveries:1 (fun bld ->
        let a = int_reg 20 and b = int_reg 21 and c = int_reg 22 and v = int_reg 23 in
        Builder.add bld a (r Reg.sp) (imm 16);
        Builder.add bld b (r Reg.sp) (imm 32);
        Builder.add bld c (r Reg.sp) (imm 48);
        store bld (r a) (imm 111);
        store bld (r b) (imm 333);
        (* a block of its own, so the scheduler cannot hoist the advanced
           loads above the stores that set their memory up *)
        ignore (Builder.start_block bld "speculate");
        ignore (Builder.load ~spec:Opcode.Spec_advanced bld (flt_reg 14) (r a));
        ignore (Builder.load ~spec:Opcode.Spec_advanced bld (int_reg 14) (r b));
        store bld (r a) (imm 222);
        chka bld (flt_reg 14) (r a);
        chka bld (int_reg 14) (r b);
        (* the float register's bits, through memory *)
        store bld (r c) (r (flt_reg 14));
        ignore (Builder.load bld v (r c));
        print bld v;
        print bld (int_reg 14));
  ]

(* chk.s recovery is a non-speculative load from the check's address; a
   NaT address is one NaT consumption and leaves the register NaT. *)
let checks =
  [
    case "chk.s recovery reloads from the check's address" "5\n" ~nat:0 (fun bld ->
        let a = stack_slot bld 16 in
        store bld (r a) (imm 5);
        let d = load ~spec:Opcode.Spec_sentinel bld (imm unmapped) in
        chks bld d (r a);
        print bld d);
    case "chk.s recovery with a NaT address" (lines [ "1"; "7" ]) ~nat:1 (fun bld ->
        let d = nat_reg bld in
        let n = nat_reg bld in
        chks bld d (r n);
        print_is_nat bld d;
        call bld "print_int" [ imm 7 ]);
    faults "chk.s recovery from an unmapped page" (fun bld ->
        let d = nat_reg bld in
        chks bld d (imm unmapped));
    case "speculated division by zero defers" (lines [ "1"; "0" ]) ~nat:1 (fun bld ->
        let a = movi bld 17 and z = movi bld 0 and d = Builder.fresh_int bld in
        let i = Builder.emit bld Opcode.Div ~dsts:[ d ] ~srcs:[ r a; r z ] in
        i.Instr.attrs.Instr.speculated <- true;
        print_is_nat bld d;
        print bld d);
    faults "division by zero faults" (fun bld ->
        let a = movi bld 17 and z = movi bld 0 and d = Builder.fresh_int bld in
        ignore (Builder.emit bld Opcode.Div ~dsts:[ d ] ~srcs:[ r a; r z ]);
        print bld d);
  ]

(* --- intrinsics ------------------------------------------------------------ *)

(* Sixteen bytes 1..16 at [a]. *)
let fill_1_to_16 bld a =
  store bld (r a) (imm 0x0807060504030201);
  store bld (r (addr bld (r a) 8)) (imm 0x100f0e0d0c0b0a09)

let print_words bld a n =
  for k = 0 to n - 1 do
    print bld (load bld (r (addr bld (r a) (8 * k))))
  done

let heap bld bytes =
  let p = Builder.fresh_int bld in
  ignore (Builder.call bld ~dsts:[ p ] "malloc" [ imm bytes ]);
  p

let intrinsics =
  [
    case "print_int, print_char and exit" "12\nA" ~code:3 (fun bld ->
        call bld "print_int" [ imm 12 ];
        call bld "print_char" [ imm (65 + 256) ];
        call bld "exit" [ imm 3 ];
        call bld "print_int" [ imm 99 ]);
    case "a NaT argument reads as 0" (lines [ "0"; "0" ]) ~nat:2 (fun bld ->
        let n = nat_reg bld in
        print bld n;
        let p = Builder.fresh_int bld in
        ignore (Builder.call bld ~dsts:[ p ] "input" [ r n ]);
        print bld p);
    case "input and input_len" ~input:[| 7L; 9L |] (lines [ "9"; "0"; "0"; "2" ])
      (fun bld ->
        List.iter
          (fun i ->
            let d = Builder.fresh_int bld in
            ignore (Builder.call bld ~dsts:[ d ] "input" [ imm i ]);
            print bld d)
          [ 1; 2; -1 ];
        let d = Builder.fresh_int bld in
        ignore (Builder.call bld ~dsts:[ d ] "input_len" []);
        print bld d);
    (* malloc rounds up to 16 bytes, at least 8, and maps what it returns *)
    case "malloc bump allocation" (lines [ "2097152"; "8"; "16"; "32"; "5" ]) (fun bld ->
        let p0 = heap bld 0 in
        let p1 = heap bld 1 in
        let p2 = heap bld 17 in
        let p3 = heap bld 4 in
        print bld p0;
        List.iter
          (fun (x, y) ->
            let d = Builder.fresh_int bld in
            Builder.sub bld d (r y) (r x);
            print bld d)
          [ (p0, p1); (p1, p2); (p2, p3) ];
        store bld (r p3) (imm 5);
        print bld (load bld (r p3)));
    (* a forward-overlapping copy replicates, byte by byte *)
    case "memcpy: forward overlap replicates"
      (lines [ "144399970194358785"; "1157159078456328451" ])
      (fun bld ->
        let a = stack_slot bld 16 in
        fill_1_to_16 bld a;
        call bld "memcpy" [ r (addr bld (r a) 3); r a; imm 8 ];
        print_words bld a 2);
    case "memcpy: backward overlap moves"
      (lines [ "795458214266537220"; "1157159078456920585" ])
      (fun bld ->
        let a = stack_slot bld 16 in
        fill_1_to_16 bld a;
        call bld "memcpy" [ r a; r (addr bld (r a) 3); imm 8 ];
        print_words bld a 2);
    (* 24 bytes from a stack range crossing a page edge to a heap range
       crossing another *)
    case "memcpy: page-crossing ranges"
      (lines [ "578437695752307201"; "1157159078456920585"; "42"; "0"; "0" ])
      (fun bld ->
        let src = stack_slot bld (-400) in
        fill_1_to_16 bld src;
        store bld (r (addr bld (r src) 16)) (imm 42);
        let dst = addr bld (r (heap bld 1024)) 500 in
        call bld "memcpy" [ r dst; r src; imm 24 ];
        print_words bld dst 3;
        print bld (load ~size:Opcode.B1 bld (r (addr bld (r dst) (-1))));
        print bld (load ~size:Opcode.B1 bld (r (addr bld (r dst) 24))));
    case "memset: page-crossing range, low byte only"
      (lines [ "0"; "-6076574518398440533"; "0"; "-1414812757" ])
      (fun bld ->
        let p = addr bld (r (heap bld 1024)) 508 in
        call bld "memset" [ r p; imm 0x1ab; imm 8 ];
        print bld (load ~size:Opcode.B1 bld (r (addr bld (r p) (-1))));
        print bld (load bld (r p));
        print bld (load ~size:Opcode.B1 bld (r (addr bld (r p) 8)));
        print bld (load ~size:Opcode.B4 bld (r (addr bld (r p) 2))));
    (* the pages a copy touches are mapped on demand, source and
       destination alike; the pages beyond stay unmapped *)
    case "memcpy: maps the pages it touches"
      (lines [ "578437695752307201"; "1157159078456920585"; "0"; "1"; "1" ])
      (fun bld ->
        let a = stack_slot bld 16 in
        fill_1_to_16 bld a;
        let dst = movi bld (0x600000 + 500) in
        call bld "memcpy" [ r dst; r a; imm 16 ];
        print_words bld dst 2;
        let src = movi bld 0x640000 in
        call bld "memcpy" [ r a; r src; imm 8 ];
        print bld (load bld (r src));
        print_is_nat bld (load ~spec:Opcode.Spec_general bld (imm (0x600000 + 1024)));
        print_is_nat bld (load ~spec:Opcode.Spec_general bld (imm (0x640000 + 512))));
    case "memcpy and memset of n <= 0 do nothing"
      (lines [ "578437695752307201"; "1"; "1"; "1"; "1" ])
      (fun bld ->
        let a = stack_slot bld 16 in
        fill_1_to_16 bld a;
        call bld "memset" [ r a; imm 9; imm 0 ];
        call bld "memset" [ imm 0x680000; imm 9; imm (-1) ];
        call bld "memcpy" [ imm 0x690000; r a; imm 0 ];
        call bld "memcpy" [ r a; imm 0x6a0000; imm (-8) ];
        print_words bld a 1;
        List.iter
          (fun x -> print_is_nat bld (load ~spec:Opcode.Spec_general bld (imm x)))
          [ 0x680000; 0x690000; 0x6a0000; 0x6a0000 - 8 ]);
  ]

(* --- float registers ---------------------------------------------------------- *)

(* A float register carries its own NaT bit, set by a deferred load and
   cleared by chk.s recovery; an intrinsic reads a float argument as an
   integer-context read converts it. *)
let float_regs =
  [
    case "a deferred float load leaves the integer register of its number" "5\n" ~nat:0
      (fun bld ->
        Builder.movi bld (int_reg 14) 5;
        ignore (Builder.load ~spec:Opcode.Spec_sentinel bld (flt_reg 14) (imm unmapped));
        print bld (int_reg 14));
    case "chk.s recovers a float register" "77\n" ~nat:0 (fun bld ->
        let a = int_reg 20 and c = int_reg 21 and v = int_reg 22 in
        Builder.add bld a (r Reg.sp) (imm 16);
        Builder.add bld c (r Reg.sp) (imm 32);
        store bld (r a) (imm 77);
        (* a block of its own, so the scheduler keeps the check below the
           store it recovers from *)
        ignore (Builder.start_block bld "speculate");
        ignore (Builder.load ~spec:Opcode.Spec_sentinel bld (flt_reg 14) (imm unmapped));
        chks bld (flt_reg 14) (r a);
        (* the float register's bits, through memory *)
        store bld (r c) (r (flt_reg 14));
        ignore (Builder.load bld v (r c));
        print bld v);
    case "an intrinsic converts a float argument" "2\n" ~nat:0 (fun bld ->
        ignore
          (Builder.emit bld Opcode.Fadd ~dsts:[ flt_reg 8 ]
             ~srcs:[ Operand.Fimm 2.5; Operand.Fimm 0.0 ]);
        call bld "print_int" [ r (flt_reg 8) ]);
    (* a function pointer converted to a float register and called
       through it: the target is read in integer context *)
    case "an indirect call through a float register" "5\n"
      ~callee_body:(fun bld -> print bld (movi bld 5))
      (fun bld ->
        Builder.mov bld (int_reg 20) (Operand.Sym "callee");
        ignore (Builder.emit bld Opcode.Cvt_if ~dsts:[ flt_reg 8 ] ~srcs:[ r (int_reg 20) ]);
        ignore (Builder.call_indirect bld (flt_reg 8) []));
  ]

(* --- NaT stores ----------------------------------------------------------------- *)

(* A store with a NaT address or NaT data is suppressed: one NaT
   consumption each, charged to Misc on the clock too. *)
let nat_stores =
  [
    case "NaT stores are suppressed" "5\n" ~nat:3 (fun bld ->
        let a = stack_slot bld 16 in
        store bld (r a) (imm 5);
        let n = nat_reg bld in
        store bld (r a) (r n);
        store bld (r a) (r n);
        store bld (r n) (imm 9);
        print bld (load bld (r a)));
  ]

(* --- rules once diverging between the engines ------------------------------ *)

(* lea is an add: a NaT base propagates.  A compare's targets are two
   predicates, and a malformed compare faults behind its guard like any
   other malformed instruction. *)
let shared_rules =
  [
    case "lea of a NaT base is NaT" (lines [ "1"; "12" ]) ~nat:0 (fun bld ->
        let n = nat_reg bld and five = movi bld 5 in
        let d = Builder.fresh_int bld and e = Builder.fresh_int bld in
        ignore (Builder.emit bld Opcode.Lea ~dsts:[ d ] ~srcs:[ r n; imm 7 ]);
        ignore (Builder.emit bld Opcode.Lea ~dsts:[ e ] ~srcs:[ r five; imm 7 ]);
        print_is_nat bld d;
        print bld e);
    faults "cmp with integer targets is malformed" (fun bld ->
        let four = movi bld 4 and t = movi bld 7 and f = movi bld 7 in
        ignore
          (Builder.emit bld (Opcode.Cmp (Opcode.Eq, Opcode.Norm)) ~dsts:[ t; f ]
             ~srcs:[ r four; r four ]);
        print bld t;
        print bld f);
    case "a one-target cmp under a false guard is squashed" "4\n" (fun bld ->
        let four = movi bld 4 in
        let gt = Builder.fresh_pred bld and gf = Builder.fresh_pred bld in
        Builder.cmp bld Opcode.Eq gt gf (r four) (imm 4);
        ignore
          (Builder.emit bld ~pred:gf (Opcode.Cmp (Opcode.Eq, Opcode.Norm))
             ~dsts:[ Builder.fresh_pred bld ] ~srcs:[ r four; r four ]);
        print bld four);
    faults "a one-target cmp under a true guard faults" (fun bld ->
        let four = movi bld 4 in
        let gt = Builder.fresh_pred bld and gf = Builder.fresh_pred bld in
        Builder.cmp bld Opcode.Eq gt gf (r four) (imm 4);
        ignore
          (Builder.emit bld ~pred:gt (Opcode.Cmp (Opcode.Eq, Opcode.Norm))
             ~dsts:[ Builder.fresh_pred bld ] ~srcs:[ r four; r four ]);
        print bld four);
  ]

(* --- the exit code ---------------------------------------------------------------- *)

(* The exit code is the entry function's first returned value when that is
   an integer register without NaT or an integer immediate; any other
   value exits 0. *)
let return_and_stop bld x =
  Builder.ret bld [ x ];
  (* the return [build] appends lands in a block of its own, never reached *)
  ignore (Builder.start_block bld "unreached")

let exit_codes =
  [
    case "an integer register return is the exit code" "" ~code:7 (fun bld ->
        return_and_stop bld (r (movi bld 7)));
    (* NaT, with the bits of 2 underneath in an engine that converts a NaT
       float's value *)
    case "a NaT integer return exits 0" "" (fun bld ->
        ignore (Builder.load ~spec:Opcode.Spec_sentinel bld (flt_reg 14) (imm unmapped));
        ignore
          (Builder.emit bld Opcode.Fadd ~dsts:[ flt_reg 8 ]
             ~srcs:[ r (flt_reg 14); Operand.Fimm 2.5 ]);
        ignore (Builder.emit bld Opcode.Cvt_fi ~dsts:[ int_reg 20 ] ~srcs:[ r (flt_reg 8) ]);
        return_and_stop bld (r (int_reg 20)));
    case "a float return exits 0" "" (fun bld ->
        ignore
          (Builder.emit bld Opcode.Fadd ~dsts:[ flt_reg 8 ]
             ~srcs:[ Operand.Fimm 2.5; Operand.Fimm 0.0 ]);
        return_and_stop bld (r (flt_reg 8)));
    case "a predicate return exits 0" "" (fun bld ->
        let four = movi bld 4 in
        let pt = Builder.fresh_pred bld and pf = Builder.fresh_pred bld in
        Builder.cmp bld Opcode.Eq pt pf (r four) (imm 4);
        return_and_stop bld (r pt));
  ]

(* New groups go at the end, so that no case's index moves. *)
let cases =
  [ shifts; sign_extension ]
  @ compares @ spec_loads @ alat @ checks @ intrinsics @ float_regs @ nat_stores @ shared_rules
  @ exit_codes

(* --- running ----------------------------------------------------------------- *)

let show = function
  | Ran { code; out; nat; recoveries } ->
      Printf.sprintf "exit %d, output %S, %d NaT consumed, %d recoveries" code out nat
        recoveries
  | Faulted m -> "fault: " ^ m

let check_engine c engine got =
  let fail () = Alcotest.failf "%s: %s gave %s" c.name engine (show got) in
  match (c.expect, got) with
  | Fault, Faulted _ -> ()
  | Out (code, out), Ran g ->
      if g.code <> code || g.out <> out then fail ();
      Option.iter (fun n -> if g.nat <> n then fail ()) c.nat;
      Option.iter (fun n -> if g.recoveries <> n then fail ()) c.recoveries
  | _ -> fail ()

let run_case c () =
  let p, layout = build ?callee_body:c.callee_body c.body in
  check_engine c "the interpreter" (interp p c.input);
  check_engine c "the machine" (machine p layout c.input)

(* --- the shared ops, differentially ------------------------------------------- *)

(* A bank of three slots per class; integer slots 1 and 2 hold the
   sources. *)
let bank () = Isa.new_bank ~ints:3 ~flts:3 ~prds:3

type result = Value of int64 | Nat | Faulted of string

let show_result = function
  | Value v -> Int64.to_string v
  | Nat -> "NaT"
  | Faulted m -> "fault: " ^ m

(* Values that reach the corner cases: 0 divisors, min_int / -1, shift
   counts outside 0..63. *)
let int64_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0L; 1L; -1L; 63L; 64L; 65L; 127L; -64L; Int64.min_int; Int64.max_int ];
        map Int64.of_int (int_range (-300) 300);
        ui64;
      ])

(* Random pairs, and the corner pairs by name. *)
let pair_gen =
  QCheck.Gen.(
    oneof
      [
        pair int64_gen int64_gen;
        oneofl [ (Int64.min_int, -1L); (17L, 0L); (1L, 64L); (1L, -1L); (-16L, 65L) ];
      ])

let int_ops =
  Opcode.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sra ]

(* Each op by another route, for a divisor that is not zero. *)
let reference (op : Opcode.t) x y =
  let count = Int64.to_int (Int64.logand y 63L) in
  match op with
  | Opcode.Add -> Int64.add x y
  | Opcode.Sub -> Int64.sub x y
  | Opcode.Mul -> Int64.mul x y
  | Opcode.Div -> Int64.div x y
  | Opcode.Rem -> Int64.rem x y
  | Opcode.And -> Int64.logand x y
  | Opcode.Or -> Int64.logor x y
  | Opcode.Xor -> Int64.logxor x y
  | Opcode.Shl -> Int64.shift_left x count
  | Opcode.Shr -> Int64.shift_right_logical x count
  | _ -> Int64.shift_right x count

(* Every integer op in its register-register, register-immediate,
   any-shape and constant forms, and constant folding, on one pair: each
   form's NaT sources make the result NaT, and otherwise every form gives
   the constant form's result, which is the reference value, or for a
   zero divisor NaT (speculated) or a fault. *)
let alu_forms =
  let gen =
    QCheck.Gen.(
      map
        (fun (((op, spec), (x, y)), (nx, ny)) -> (op, spec, x, y, nx, ny))
        (pair (pair (pair (oneofl int_ops) bool) pair_gen) (pair bool bool)))
  in
  let print (op, spec, x, y, nx, ny) =
    Fmt.str "%a spec=%b %Ld%s %Ld%s" Opcode.pp op spec x
      (if nx then " (NaT)" else "") y (if ny then " (NaT)" else "")
  in
  QCheck.Test.make ~count:3000 ~name:"ALU forms and constant folding agree"
    (QCheck.make ~print gen) (fun (op, spec, x, y, nx, ny) ->
      let run a b =
        let bk = bank () in
        Bytes.set_int64_ne bk.Isa.ints 8 x;
        Bytes.set_int64_ne bk.Isa.ints 16 y;
        bk.Isa.inat.(1) <- nx;
        bk.Isa.inat.(2) <- ny;
        match Isa.alu op ~spec (Isa.Dint 0) a b bk with
        | () -> if bk.Isa.inat.(0) then Nat else Value (Bytes.get_int64_ne bk.Isa.ints 0)
        | exception Isa.Fault m -> Faulted m
      in
      let base = run (Isa.Imm x) (Isa.Imm y) in
      let nat_if n = if n then Nat else base in
      let forms =
        [
          ("reg-reg", run (Isa.Int 1) (Isa.Int 2), nat_if (nx || ny));
          ("reg-imm", run (Isa.Int 1) (Isa.Imm y), nat_if nx);
          ("any", run (Isa.Imm x) (Isa.Int 2), nat_if ny);
        ]
      in
      List.iter
        (fun (form, got, want) ->
          if got <> want then
            QCheck.Test.fail_reportf "%s: %s, constant form %s" form (show_result got)
              (show_result want))
        forms;
      let want =
        match op with
        | (Opcode.Div | Opcode.Rem) when Int64.equal y 0L ->
            if spec then Nat
            else Faulted (if op = Opcode.Div then "division by zero" else "remainder by zero")
        | _ -> Value (reference op x y)
      in
      if base <> want then
        QCheck.Test.fail_reportf "constant form %s, reference %s" (show_result base)
          (show_result want);
      let fold = Epic_opt.Constfold.fold_int op x y in
      if spec && fold <> (match base with Value v -> Some v | _ -> None) then
        QCheck.Test.fail_report "constant folding disagrees";
      true)

(* The compare-target rule, written out: the targets after a compare of
   type [ct], from targets [(pt0, pf0)], under a guard that is [guard], on
   an input that holds, fails or is NaT. *)
type input = Holds | Fails | Nat_input

let targets_table ct ~guard input (pt0, pf0) =
  match (ct, guard, input) with
  | Opcode.Unc, false, _ -> (false, false)
  | (Opcode.Norm | Opcode.Orform), false, _ -> (pt0, pf0)
  | (Opcode.Norm | Opcode.Unc), true, Holds -> (true, false)
  | (Opcode.Norm | Opcode.Unc), true, Fails -> (false, true)
  | (Opcode.Norm | Opcode.Unc), true, Nat_input -> (false, false)
  | Opcode.Orform, true, Holds -> (true, true)
  | Opcode.Orform, true, (Fails | Nat_input) -> (pt0, pf0)

(* Each relation by another route: signed and unsigned [compare]. *)
let relation (c : Opcode.icmp) x y =
  let s = Int64.compare x y and u = Int64.unsigned_compare x y in
  match c with
  | Opcode.Eq -> s = 0
  | Opcode.Ne -> s <> 0
  | Opcode.Lt -> s < 0
  | Opcode.Le -> s <= 0
  | Opcode.Gt -> s > 0
  | Opcode.Ge -> s >= 0
  | Opcode.Ltu -> u < 0
  | Opcode.Geu -> u >= 0

(* Every relation x compare type x guard (none, true, false) x NaT input
   (none, first, second source) x operand form (register-register,
   register-immediate, any shape, float registers). *)
let compare_targets =
  let open QCheck.Gen in
  let gen =
    map
      (fun ((((c, ct), (guard, nat)), (form, (x, y))), init) -> (c, ct, guard, nat, form, x, y, init))
      (pair
         (pair
            (pair
               (pair
                  (oneofl Opcode.[ Eq; Ne; Lt; Le; Gt; Ge; Ltu; Geu ])
                  (oneofl Opcode.[ Norm; Unc; Orform ]))
               (pair (oneofl [ None; Some true; Some false ]) (int_bound 2)))
            (pair (oneofl [ `Rr; `Ri; `Any; `Float ]) (pair int64_gen int64_gen)))
         (pair bool bool))
  in
  let print (c, ct, guard, nat, form, x, y, (pt0, pf0)) =
    Printf.sprintf "cmp.%s%s guard=%s nat=%d form=%s %Ld %Ld from (%b, %b)"
      (Opcode.icmp_to_string c) (Opcode.ctype_suffix ct)
      (match guard with None -> "none" | Some g -> string_of_bool g)
      nat
      (match form with `Rr -> "rr" | `Ri -> "ri" | `Any -> "any" | `Float -> "float")
      x y pt0 pf0
  in
  QCheck.Test.make ~count:5000 ~name:"compare targets follow the table" (QCheck.make ~print gen)
    (fun (c, ct, guard, nat, form, x, y, (pt0, pf0)) ->
      let bk = bank () in
      Bytes.set_int64_ne bk.Isa.ints 8 x;
      Bytes.set_int64_ne bk.Isa.ints 16 y;
      bk.Isa.flts.(1) <- Int64.to_float x;
      bk.Isa.flts.(2) <- Int64.to_float y;
      (* a NaT input only where the form has a register there *)
      let nat =
        match (form, nat) with
        | (`Rr | `Float), n -> n
        | `Ri, n -> if n = 1 then 1 else 0
        | `Any, n -> if n = 2 then 2 else 0
      in
      if nat > 0 then begin
        bk.Isa.inat.(nat) <- true;
        bk.Isa.fnat.(nat) <- true
      end;
      let a, b, holds =
        match form with
        | `Rr -> (Isa.Int 1, Isa.Int 2, relation c x y)
        | `Ri -> (Isa.Int 1, Isa.Imm y, relation c x y)
        | `Any -> (Isa.Imm x, Isa.Int 2, relation c x y)
        | `Float ->
            let fx = Int64.to_float x and fy = Int64.to_float y in
            let holds =
              match c with
              | Opcode.Eq -> fx = fy
              | Opcode.Ne -> fx <> fy
              | Opcode.Lt | Opcode.Ltu -> fx < fy
              | Opcode.Le -> fx <= fy
              | Opcode.Gt -> fx > fy
              | Opcode.Ge | Opcode.Geu -> fx >= fy
            in
            (Isa.Flt 1, Isa.Flt 2, holds)
      in
      let op = if form = `Float then Opcode.Fcmp (c, ct) else Opcode.Cmp (c, ct) in
      (* predicate slot 0 is the guard, 1 and 2 the targets *)
      let g = match guard with None -> Isa.Always | Some _ -> Isa.If 0 in
      bk.Isa.prds.(0) <- guard = Some true;
      bk.Isa.prds.(1) <- pt0;
      bk.Isa.prds.(2) <- pf0;
      Isa.cmp op g 1 2 a b bk;
      let input = if nat > 0 then Nat_input else if holds then Holds else Fails in
      let want = targets_table ct ~guard:(guard <> Some false) input (pt0, pf0) in
      (bk.Isa.prds.(1), bk.Isa.prds.(2)) = want)

let suite =
  List.map (fun c -> (c.name, `Quick, run_case c)) cases
  @ List.map QCheck_alcotest.to_alcotest [ alu_forms; compare_targets ]
