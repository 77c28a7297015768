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
  Epic_sched.Regalloc.run p;
  Epic_sched.List_sched.run p;
  (p, Epic_sched.Layout.build p)

(* --- the engines ---------------------------------------------------------- *)

type outcome =
  | Ran of { code : int; out : string; nat : int; recoveries : int }
  | Faulted of string

let interp p input =
  match Interp.run p input with
  | code, out, st ->
      Ran { code; out; nat = st.Interp.nat_faults; recoveries = st.Interp.alat_recoveries }
  | exception Interp.Fault m -> Faulted m

let machine p layout input =
  match Machine.run p layout input with
  | code, out, st ->
      let c = st.Machine.c in
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

let cases =
  [ shifts; sign_extension ] @ compares @ spec_loads @ alat @ checks @ intrinsics @ float_regs

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

let suite = List.map (fun c -> (c.name, `Quick, run_case c)) cases
