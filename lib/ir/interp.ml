(* High-level IR interpreter.  Executes the IR directly, at any point of the
   compilation pipeline: the reference semantics for differential testing
   of transformations and — with [~profile:true] — the engine behind
   control-flow profiling (Section 3.1 of the paper).

   It models the pieces of IA-64 semantics the structural transforms rely on:
   predicated execution, NaT bits produced by control-speculative loads to
   invalid addresses, speculation checks, and compare types.

   Each run first predecodes the program (DESIGN.md §10): every function
   becomes a [dfunc] whose blocks are instruction arrays with branch targets
   and fall-throughs resolved to block indices, calls resolved to a function
   slot, an intrinsic or a function-pointer operand, [Sym] operands resolved
   to addresses, and registers renumbered densely per bank, so a frame holds
   only the registers its function mentions.  Profile counts live in int
   arrays of the [dfunc] and are read back through the [iter_*] functions.

   Executing an instruction allocates nothing.  Integer registers live
   unboxed in a [Bytes] bank, eight bytes per slot; the operand shapes
   that dominate train runs decode to ops of their own (register-register
   and register-immediate ALU ops, constants, register moves, loads and
   stores through a register address, register-register compares); memory
   is reached through [Memimage]'s bank-offset entry points; and a call
   binds its arguments straight into the callee's bank, on a frame reused
   from the callee's own stack of frames. *)

type value = Vi of int64 | Vf of float | Vp of bool | Vnat

exception Fault of string
exception Exit_program of int
exception Out_of_fuel

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* --- predecoded form ------------------------------------------------------ *)

(* A source operand.  Registers are slots of the frame's three banks:
   integers (Int and Brr registers share it, as in the simulator), floats
   and predicates.  Labels read as 0 and symbols as their address. *)
type opnd = Int of int | Flt of int | Prd of int | Imm of int64 | Fimm of float

(* A destination slot; [Drop] for the hardwired r0 and p0. *)
type dst = Dint of int | Dflt of int | Dprd of int | Drop

type guard = Always | If of int (* predicate slot *) | If_opnd of opnd

type callee =
  | Intrinsic of Intrinsics.kind
  | Direct of int (* function slot *)
  | Indirect of opnd * int (* function pointer, indirect-site index *)
  | Undefined of string
  | Bad_target

type alu = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sra
type falu = Fadd | Fsub | Fmul | Fdiv

(* The shape ops name integer slots directly: [d] is never r0 (a write to
   r0 decodes to the generic op, which drops it). *)
type op =
  | Alu_rr of { aop : alu; d : int; a : int; b : int; spec : bool }
  | Alu_ri of { aop : alu; d : int; a : int; imm : int64; spec : bool }
  | Const of int * int64 (* mov of an immediate; lea of two *)
  | Move of int * int (* integer register to integer register *)
  | Ld_r of { size : int; spec : Opcode.spec_kind; d : int; key : int; a : int }
  | St_r of { size : int; a : int; v : int }
  | Icmp_rr of { c : Opcode.icmp; ct : Opcode.ctype; pt : dst; pf : dst; a : int; b : int }
  | Icmp_ri of {
      c : Opcode.icmp;
      ct : Opcode.ctype;
      pt : dst;
      pf : dst;
      a : int;
      imm : int64;
    }
  | Cmp of {
      fcmp : bool;
      c : Opcode.icmp;
      ct : Opcode.ctype;
      pt : dst;
      pf : dst;
      a : opnd;
      b : opnd;
      arity_ok : bool;
    }
  | Ialu of { aop : alu; d : dst; a : opnd; b : opnd; spec : bool }
  | Falu of { fop : falu; d : dst; a : opnd; b : opnd }
  | Fneg of dst * opnd
  | Cvt_fi of dst * opnd
  | Cvt_if of dst * opnd
  | Mov of dst * opnd
  | Sxt of int * dst * opnd (* source width in bits *)
  | Lea of dst * opnd * opnd
  | Ld of {
      size : int;
      spec : Opcode.spec_kind;
      d : dst;
      fdst : bool; (* float destination: memory holds IEEE-754 bits *)
      key : int; (* ALAT key of the destination *)
      a : opnd;
    }
  | St of { size : int; a : opnd; v : opnd }
  | Chk of { size : int; r : opnd; rd : dst; fdst : bool; a : opnd }
  | Chka of { size : int; key : int; rd : dst; fdst : bool; a : opnd }
  | Br of { site : int; target : int; label : string }
      (* target: block index; -1 unknown label, -2 malformed *)
  | Call of { callee : callee; args : opnd array; dsts : dst array }
  | Ret of opnd array
  | Nop
  | Bad of exn (* malformed: raised when executed *)

type dinstr = { g : guard; op : op }

type dblock = {
  block : Block.t;
  code : dinstr array;
  fall : int; (* layout successor; -1 at the end *)
}

(* The ALAT, keyed by destination register, lives in the frame: a callee
   starts with an empty one and the caller's is flushed when a call
   returns, which is the hardware's single ALAT conservatively flushed at
   calls. *)
type frame = {
  ints : Bytes.t; (* slot k at byte offset 8k *)
  inat : bool array;
  flts : float array;
  fnat : bool array;
  prds : bool array;
  mutable alat : (int * int64 * int) list; (* key, address, size *)
}

type dfunc = {
  func : Func.t;
  blocks : dblock array;
  params : dst array;
  n_int : int;
  n_flt : int;
  n_prd : int;
  entries : int array; (* profile: block-entry counts *)
  br_instrs : Instr.t array; (* branch sites *)
  br_exec : int array;
  br_taken : int array;
  ind_instrs : Instr.t array; (* indirect call sites *)
  ind_counts : int array array; (* site -> function index -> calls *)
  (* frames by recursion depth: [frames.(depth)] is the next invocation's,
     [no_frame] where none was made yet *)
  mutable frames : frame array;
  mutable depth : int;
}

type code = {
  funcs : dfunc array; (* program order *)
  targets : callee array; (* what a call to function i's name runs *)
  entry : callee;
  scratch : Bytes.t;
      (* two words: an address (offset 0) and a value (offset 8) that are
         not in a register bank, and an intrinsic's result (offset 0) *)
}

type state = {
  program : Program.t;
  mem : Memimage.t;
  mutable heap : int64;
  output : Buffer.t;
  input : int64 array;
  mutable fuel : int; (* remaining dynamic instructions *)
  mutable executed : int;
  mutable nat_faults : int; (* NaT consumed by a non-speculative op *)
  mutable wild_loads : int; (* speculative accesses to unmapped pages *)
  mutable alat_recoveries : int; (* chk.a found its entry invalidated *)
  profiling : bool;
  code : code;
}

(* Fixed slots: r0 and sp (r12) open the integer bank, p0 the predicate
   bank; r0 reads 0 and p0 reads true because writes to them decode to
   [Drop]. *)
let r0_slot = 0
let sp_slot = 1
let p0_slot = 0

let bank (r : Reg.t) =
  match r.Reg.cls with Reg.Int | Reg.Brr -> 0 | Reg.Flt -> 1 | Reg.Prd -> 2

let decode_func ~globals ~func_index ~resolve ~nfuncs (f : Func.t) =
  let regs = Hashtbl.create 64 in
  let next = [| 2; 0; 1 |] in
  Hashtbl.add regs (0, true, Reg.r0.Reg.id) r0_slot;
  Hashtbl.add regs (0, true, Reg.sp.Reg.id) sp_slot;
  Hashtbl.add regs (2, true, Reg.p0.Reg.id) p0_slot;
  let slot (r : Reg.t) =
    let key = (bank r, r.Reg.phys, r.Reg.id) in
    match Hashtbl.find_opt regs key with
    | Some s -> s
    | None ->
        let b = bank r in
        let s = next.(b) in
        next.(b) <- s + 1;
        Hashtbl.add regs key s;
        s
  in
  let reg r =
    let s = slot r in
    match bank r with 0 -> Int s | 1 -> Flt s | _ -> Prd s
  in
  let dst (r : Reg.t) =
    let s = slot r in
    match bank r with
    | 0 -> if r.Reg.phys && s = r0_slot then Drop else Dint s
    | 1 -> Dflt s
    | _ -> if r.Reg.phys && s = p0_slot then Drop else Dprd s
  in
  let alat_key r = (3 * slot r) + bank r in
  let opnd = function
    | Operand.Reg r -> reg r
    | Operand.Imm i -> Imm i
    | Operand.Fimm x -> Fimm x
    | Operand.Label _ -> Imm 0L
    | Operand.Sym s -> (
        match Hashtbl.find_opt globals s with
        | Some a -> Imm a
        | None -> (
            match Hashtbl.find_opt func_index s with
            | Some i -> Imm (Int64.add Program.code_base (Int64.of_int (i * 64)))
            | None -> raise (Invalid_argument ("Program.func_address: no function " ^ s))))
  in
  let blocks = Array.of_list f.Func.blocks in
  let labels = Hashtbl.create (2 * Array.length blocks) in
  Array.iteri
    (fun i (b : Block.t) ->
      if not (Hashtbl.mem labels b.Block.label) then Hashtbl.add labels b.Block.label i)
    blocks;
  let brs = ref [] and n_br = ref 0 in
  let inds = ref [] and n_ind = ref 0 in
  let site acc n (i : Instr.t) =
    acc := i :: !acc;
    incr n;
    !n - 1
  in
  let fault s = Bad (Fault s) in
  let alu (i : Instr.t) aop d a b =
    let spec = i.Instr.attrs.Instr.speculated in
    match (dst d, opnd a, opnd b) with
    | Dint d, Int a, Int b -> Alu_rr { aop; d; a; b; spec }
    | Dint d, Int a, Imm imm -> Alu_ri { aop; d; a; imm; spec }
    | d, a, b -> Ialu { aop; d; a; b; spec }
  in
  let cmp ~fcmp c ct pt pf srcs =
    match srcs with
    | [ a; b ] -> (
        match (fcmp, opnd a, opnd b, dst pt, dst pf) with
        | false, Int a, Int b, pt, pf -> Icmp_rr { c; ct; pt; pf; a; b }
        | false, Int a, Imm imm, pt, pf -> Icmp_ri { c; ct; pt; pf; a; imm }
        | _, a, b, pt, pf -> Cmp { fcmp; c; ct; pt; pf; a; b; arity_ok = true })
    | _ ->
        Cmp { fcmp; c; ct; pt = dst pt; pf = dst pf; a = Imm 0L; b = Imm 0L; arity_ok = false }
  in
  let falu fop d a b = Falu { fop; d = dst d; a = opnd a; b = opnd b } in
  let mov d a =
    match (dst d, opnd a) with
    | Dint d, Int a -> Move (d, a)
    | Dint d, Imm v -> Const (d, v)
    | d, a -> Mov (d, a)
  in
  let lea d base off =
    match (dst d, opnd base, opnd off) with
    | Dint d, Imm b, Imm o -> Const (d, Int64.add b o)
    | d, base, off -> Lea (d, base, off)
  in
  let decode (i : Instr.t) =
    let size sz = Opcode.size_bytes sz in
    let fdst (r : Reg.t) = r.Reg.cls = Reg.Flt in
    match (i.Instr.op, i.Instr.dsts, i.Instr.srcs) with
    | Opcode.Br, _, srcs ->
        let s = site brs n_br i in
        let target, label =
          match srcs with
          | [ Operand.Label l ] -> (
              (match Hashtbl.find_opt labels l with Some t -> t | None -> -1), l)
          | _ -> (-2, "")
        in
        Br { site = s; target; label }
    | Opcode.Cmp (c, ct), [ pt; pf ], srcs -> cmp ~fcmp:false c ct pt pf srcs
    | Opcode.Fcmp (c, ct), [ pt; pf ], srcs -> cmp ~fcmp:true c ct pt pf srcs
    | (Opcode.Cmp _ | Opcode.Fcmp _), _, _ -> fault "cmp without two destinations"
    | Opcode.Add, [ d ], [ a; b ] -> alu i Add d a b
    | Opcode.Sub, [ d ], [ a; b ] -> alu i Sub d a b
    | Opcode.Mul, [ d ], [ a; b ] -> alu i Mul d a b
    | Opcode.Div, [ d ], [ a; b ] -> alu i Div d a b
    | Opcode.Rem, [ d ], [ a; b ] -> alu i Rem d a b
    | Opcode.And, [ d ], [ a; b ] -> alu i And d a b
    | Opcode.Or, [ d ], [ a; b ] -> alu i Or d a b
    | Opcode.Xor, [ d ], [ a; b ] -> alu i Xor d a b
    | Opcode.Shl, [ d ], [ a; b ] -> alu i Shl d a b
    | Opcode.Shr, [ d ], [ a; b ] -> alu i Shr d a b
    | Opcode.Sra, [ d ], [ a; b ] -> alu i Sra d a b
    | ( ( Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem
        | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Shl | Opcode.Shr
        | Opcode.Sra ),
        _,
        _ ) ->
        fault ("bad ALU instruction " ^ Instr.to_string i)
    | Opcode.Fadd, [ d ], [ a; b ] -> falu Fadd d a b
    | Opcode.Fsub, [ d ], [ a; b ] -> falu Fsub d a b
    | Opcode.Fmul, [ d ], [ a; b ] -> falu Fmul d a b
    | Opcode.Fdiv, [ d ], [ a; b ] -> falu Fdiv d a b
    | (Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv), _, _ ->
        fault "bad FP instruction"
    | Opcode.Fneg, [ d ], [ a ] -> Fneg (dst d, opnd a)
    | Opcode.Fneg, _, _ -> fault "bad fneg"
    | Opcode.Cvt_fi, [ d ], [ a ] -> Cvt_fi (dst d, opnd a)
    | Opcode.Cvt_fi, _, _ -> fault "bad cvt.fi"
    | Opcode.Cvt_if, [ d ], [ a ] -> Cvt_if (dst d, opnd a)
    | Opcode.Cvt_if, _, _ -> fault "bad cvt.if"
    | Opcode.Mov, [ d ], [ a ] -> mov d a
    | Opcode.Sxt sz, [ d ], [ a ] -> Sxt (8 * size sz, dst d, opnd a)
    | (Opcode.Mov | Opcode.Sxt _), _, _ -> fault "bad mov"
    | Opcode.Lea, [ d ], [ base; off ] -> lea d base off
    | Opcode.Lea, _, _ -> fault "bad lea"
    | Opcode.Ld (sz, spec), [ d ], [ a ] -> (
        match (dst d, opnd a) with
        | Dint di, Int a when not (fdst d) ->
            Ld_r { size = size sz; spec; d = di; key = alat_key d; a }
        | dd, a -> Ld { size = size sz; spec; d = dd; fdst = fdst d; key = alat_key d; a })
    | Opcode.Ld _, _, _ -> fault "bad load"
    | Opcode.St sz, _, [ a; v ] -> (
        match (opnd a, opnd v) with
        | Int a, Int v -> St_r { size = size sz; a; v }
        | a, v -> St { size = size sz; a; v })
    | Opcode.St _, _, _ -> fault "bad store"
    | Opcode.Chk sz, _, [ Operand.Reg r; a ] ->
        Chk { size = size sz; r = reg r; rd = dst r; fdst = fdst r; a = opnd a }
    | Opcode.Chk _, _, _ -> fault "bad chk"
    | Opcode.Chka sz, _, [ Operand.Reg r; a ] ->
        Chka { size = size sz; key = alat_key r; rd = dst r; fdst = fdst r; a = opnd a }
    | Opcode.Chka _, _, _ -> fault "bad chk.a"
    | Opcode.Br_call, ds, target :: args ->
        let callee =
          match target with
          | Operand.Sym name -> resolve name
          | Operand.Reg r -> Indirect (reg r, site inds n_ind i)
          | _ -> Bad_target
        in
        Call
          {
            callee;
            args = Array.of_list (List.map opnd args);
            dsts = Array.of_list (List.map dst ds);
          }
    | Opcode.Br_call, _, [] -> fault "bad call"
    | Opcode.Br_ret, _, srcs -> Ret (Array.of_list (List.map opnd srcs))
    | (Opcode.Alloc | Opcode.Nop), _, _ -> Nop
  in
  let dinstr (i : Instr.t) =
    let op = try decode i with Invalid_argument _ as e -> Bad e in
    let g =
      match (i.Instr.op, i.Instr.pred) with
      | _, None -> Always
      | (Opcode.Cmp _ | Opcode.Fcmp _), _ when List.length i.Instr.dsts <> 2 ->
          Always (* the destination-arity fault ignores the guard *)
      | _, Some p when p.Reg.cls = Reg.Prd -> If (slot p)
      | _, Some p -> If_opnd (reg p)
    in
    { g; op }
  in
  let params = Array.of_list (List.map dst f.Func.params) in
  let n = Array.length blocks in
  let dblocks =
    Array.mapi
      (fun k (b : Block.t) ->
        {
          block = b;
          code = Array.of_list (List.map dinstr b.Block.instrs);
          fall = (if k + 1 < n then k + 1 else -1);
        })
      blocks
  in
  let br_instrs = Array.of_list (List.rev !brs) in
  let ind_instrs = Array.of_list (List.rev !inds) in
  {
    func = f;
    blocks = dblocks;
    params;
    n_int = next.(0);
    n_flt = next.(1);
    n_prd = next.(2);
    entries = Array.make n 0;
    br_instrs;
    br_exec = Array.make (Array.length br_instrs) 0;
    br_taken = Array.make (Array.length br_instrs) 0;
    ind_instrs;
    ind_counts = Array.init (Array.length ind_instrs) (fun _ -> Array.make nfuncs 0);
    frames = [||];
    depth = 0;
  }

(* Resolution follows [Program.find_func]/[find_global]: the first
   definition of a name wins, and an intrinsic name shadows a function. *)
let decode (p : Program.t) =
  let globals = Hashtbl.create 64 in
  List.iter
    (fun (g : Program.global) ->
      if not (Hashtbl.mem globals g.Program.gname) then
        Hashtbl.add globals g.Program.gname g.Program.address)
    p.Program.globals;
  let func_index = Hashtbl.create 64 in
  List.iteri
    (fun i (f : Func.t) ->
      if not (Hashtbl.mem func_index f.Func.name) then Hashtbl.add func_index f.Func.name i)
    p.Program.funcs;
  let nfuncs = List.length p.Program.funcs in
  let resolve name =
    match Intrinsics.of_name name with
    | Some k -> Intrinsic k
    | None -> (
        match Hashtbl.find_opt func_index name with
        | Some s -> Direct s
        | None -> Undefined name)
  in
  let funcs =
    Array.of_list (List.map (decode_func ~globals ~func_index ~resolve ~nfuncs) p.Program.funcs)
  in
  {
    funcs;
    targets = Array.map (fun df -> resolve df.func.Func.name) funcs;
    entry = resolve p.Program.entry;
    scratch = Bytes.create 16;
  }

(* --- frames --------------------------------------------------------------- *)

let no_frame =
  { ints = Bytes.empty; inat = [||]; flts = [||]; fnat = [||]; prds = [||]; alat = [] }

let new_frame df =
  let prds = Array.make df.n_prd false in
  prds.(p0_slot) <- true;
  {
    ints = Bytes.make (8 * df.n_int) '\000';
    inat = Array.make df.n_int false;
    flts = Array.make df.n_flt 0.;
    fnat = Array.make df.n_flt false;
    prds;
    alat = [];
  }

(* The frame of a new invocation of [df], every register reading 0 (p0
   true) as in a fresh one. *)
let enter df =
  let d = df.depth in
  if d = Array.length df.frames then begin
    let grown = Array.make (max 4 (2 * d)) no_frame in
    Array.blit df.frames 0 grown 0 d;
    df.frames <- grown
  end;
  df.depth <- d + 1;
  let fr = df.frames.(d) in
  if fr == no_frame then begin
    let fr = new_frame df in
    df.frames.(d) <- fr;
    fr
  end
  else begin
    Bytes.fill fr.ints 0 (Bytes.length fr.ints) '\000';
    Array.fill fr.inat 0 df.n_int false;
    Array.fill fr.flts 0 df.n_flt 0.;
    Array.fill fr.fnat 0 df.n_flt false;
    Array.fill fr.prds 0 df.n_prd false;
    fr.prds.(p0_slot) <- true;
    fr.alat <- [];
    fr
  end

(* Operand reads.  A non-integer value read as an integer (or the reverse)
   converts like a register write of the other class would. *)
let[@inline] is_nat fr = function
  | Int k -> fr.inat.(k)
  | Flt k -> fr.fnat.(k)
  | Prd _ | Imm _ | Fimm _ -> false

(* [int_of]/[flt_of] assume the operand is not NaT.  Every arm computes
   its value, an immediate included (an identity the compiler keeps): an
   arm that merely returned the boxed immediate would make the inlined
   read box the register arms too. *)
let[@inline] int_of fr = function
  | Int k -> get64 fr.ints (k lsl 3)
  | Flt k -> Int64.of_float fr.flts.(k)
  | Prd k -> if fr.prds.(k) then 1L else 0L
  | Imm i -> Int64.add i 0L
  | Fimm f -> Int64.of_float f

let[@inline] flt_of fr = function
  | Int k -> Int64.to_float (get64 fr.ints (k lsl 3))
  | Flt k -> fr.flts.(k)
  | Prd k -> if fr.prds.(k) then 1. else 0.
  | Imm i -> Int64.to_float i
  | Fimm f -> Int64.float_of_bits (Int64.bits_of_float f)

let pred_of fr = function
  | Int k -> (not fr.inat.(k)) && not (Int64.equal (get64 fr.ints (k lsl 3)) 0L)
  | Prd k -> fr.prds.(k)
  | Imm i -> not (Int64.equal i 0L)
  | Flt _ | Fimm _ -> false

(* Writes coerce to the destination's class. *)
let[@inline] set_int fr k x =
  set64 fr.ints (k lsl 3) x;
  fr.inat.(k) <- false

let[@inline] write_int fr d x =
  match d with
  | Dint k -> set_int fr k x
  | Dflt k ->
      fr.flts.(k) <- Int64.to_float x;
      fr.fnat.(k) <- false
  | Dprd k -> fr.prds.(k) <- not (Int64.equal x 0L)
  | Drop -> ()

let[@inline] write_flt fr d f =
  match d with
  | Dint k -> set_int fr k (Int64.of_float f)
  | Dflt k ->
      fr.flts.(k) <- f;
      fr.fnat.(k) <- false
  | Dprd k -> fr.prds.(k) <- false
  | Drop -> ()

let[@inline] write_pred fr d b =
  match d with
  | Dint k -> set_int fr k (if b then 1L else 0L)
  | Dflt k ->
      fr.flts.(k) <- (if b then 1. else 0.);
      fr.fnat.(k) <- false
  | Dprd k -> fr.prds.(k) <- b
  | Drop -> ()

let write_nat fr = function
  | Dint k -> fr.inat.(k) <- true
  | Dflt k -> fr.fnat.(k) <- true
  | Dprd k -> fr.prds.(k) <- false
  | Drop -> ()

(* Write operand [a] of frame [src] to [d] of frame [dst], converting to
   the destination's class: a move, or binding an argument or a result
   across a call. *)
let transfer src a dst d =
  match a with
  | Int k -> if src.inat.(k) then write_nat dst d else write_int dst d (get64 src.ints (k lsl 3))
  | Flt k -> if src.fnat.(k) then write_nat dst d else write_flt dst d src.flts.(k)
  | Prd k -> write_pred dst d src.prds.(k)
  | Imm i -> write_int dst d i
  | Fimm f -> write_flt dst d f

(* --- semantics ------------------------------------------------------------ *)

(* [alu] stores [x op y] at byte offset [o] of [bank]; the caller has
   ruled out a zero divisor. *)
let[@inline] alu bank o aop x y =
  match aop with
  | Add -> set64 bank o (Int64.add x y)
  | Sub -> set64 bank o (Int64.sub x y)
  | Mul -> set64 bank o (Int64.mul x y)
  | Div -> set64 bank o (Int64.div x y)
  | Rem -> set64 bank o (Int64.rem x y)
  | And -> set64 bank o (Int64.logand x y)
  | Or -> set64 bank o (Int64.logor x y)
  | Xor -> set64 bank o (Int64.logxor x y)
  | Shl -> set64 bank o (Int64.shift_left x (Int64.to_int y land 63))
  | Shr -> set64 bank o (Int64.shift_right_logical x (Int64.to_int y land 63))
  | Sra -> set64 bank o (Int64.shift_right x (Int64.to_int y land 63))

(* Div/Rem by zero under speculation must defer, not kill. *)
let divide_by_zero fr d aop ~spec =
  if spec then write_nat fr d
  else raise (Fault (if aop = Div then "division by zero" else "remainder by zero"))

let[@inline] zero_divisor aop y = (aop = Div || aop = Rem) && Int64.equal y 0L

let[@inline] icmp (c : Opcode.icmp) (x : int64) (y : int64) =
  match c with
  | Opcode.Eq -> Int64.equal x y
  | Opcode.Ne -> not (Int64.equal x y)
  | Opcode.Lt -> x < y
  | Opcode.Le -> x <= y
  | Opcode.Gt -> x > y
  | Opcode.Ge -> x >= y
  | Opcode.Ltu -> Int64.sub x Int64.min_int < Int64.sub y Int64.min_int
  | Opcode.Geu -> Int64.sub x Int64.min_int >= Int64.sub y Int64.min_int

let[@inline] fcmp (c : Opcode.icmp) (x : float) (y : float) =
  match c with
  | Opcode.Eq -> x = y
  | Opcode.Ne -> x <> y
  | Opcode.Lt | Opcode.Ltu -> x < y
  | Opcode.Le -> x <= y
  | Opcode.Gt -> x > y
  | Opcode.Ge | Opcode.Geu -> x >= y

(* Write a compare's targets.  [r] is the outcome: 1 true, 0 false, -1 a
   NaT input; it is only read under a true guard. *)
let[@inline] set_targets fr (ct : Opcode.ctype) pt pf guard r =
  match ct with
  | Opcode.Norm ->
      if guard then begin
        write_pred fr pt (r = 1);
        write_pred fr pf (r = 0)
      end
  | Opcode.Unc ->
      (* unc clears both targets even when the guard is false *)
      write_pred fr pt false;
      write_pred fr pf false;
      if guard && r >= 0 then begin
        write_pred fr pt (r = 1);
        write_pred fr pf (r = 0)
      end
  | Opcode.Orform ->
      if guard && r = 1 then begin
        write_pred fr pt true;
        write_pred fr pf true
      end

let compare_outcome fr ~fcmp:is_f c a b ~arity_ok =
  if not arity_ok then raise (Fault "cmp arity");
  if is_nat fr a || is_nat fr b then -1
  else if
    if is_f then fcmp c (flt_of fr a) (flt_of fr b) else icmp c (int_of fr a) (int_of fr b)
  then 1
  else 0

let[@inline] falu fr d fop x y =
  match fop with
  | Fadd -> write_flt fr d (x +. y)
  | Fsub -> write_flt fr d (x -. y)
  | Fmul -> write_flt fr d (x *. y)
  | Fdiv -> write_flt fr d (x /. y)

(* [do_intrinsic] leaves its result, if any, at offset 0 of the scratch
   words and returns how many it has (0 or 1). *)
let do_intrinsic st fr (k : Intrinsics.kind) (args : opnd array) =
  let geti n =
    if n >= Array.length args then 0L
    else if is_nat fr args.(n) then begin
      st.nat_faults <- st.nat_faults + 1;
      0L
    end
    else int_of fr args.(n)
  in
  let result x =
    set64 st.code.scratch 0 x;
    1
  in
  match k with
  | Intrinsics.Print_int ->
      Buffer.add_string st.output (Int64.to_string (geti 0));
      Buffer.add_char st.output '\n';
      0
  | Intrinsics.Print_char ->
      Buffer.add_char st.output (Char.chr (Int64.to_int (geti 0) land 0xff));
      0
  | Intrinsics.Malloc ->
      let bytes = Int64.to_int (geti 0) in
      let bytes = max 8 ((bytes + 15) / 16 * 16) in
      let addr = st.heap in
      st.heap <- Int64.add st.heap (Int64.of_int bytes);
      Memimage.map_range st.mem addr bytes;
      result addr
  | Intrinsics.Input ->
      let i = Int64.to_int (geti 0) in
      result (if i >= 0 && i < Array.length st.input then st.input.(i) else 0L)
  | Intrinsics.Input_len -> result (Int64.of_int (Array.length st.input))
  | Intrinsics.Memcpy ->
      let dst = geti 0 and src = geti 1 and n = Int64.to_int (geti 2) in
      for i = 0 to n - 1 do
        let b = Memimage.read st.mem (Int64.add src (Int64.of_int i)) 1 in
        Memimage.write st.mem (Int64.add dst (Int64.of_int i)) 1 b
      done;
      0
  | Intrinsics.Memset ->
      let dst = geti 0 and v = geti 1 and n = Int64.to_int (geti 2) in
      for i = 0 to n - 1 do
        Memimage.write st.mem (Int64.add dst (Int64.of_int i)) 1 v
      done;
      0
  | Intrinsics.Exit -> raise (Exit_program (Int64.to_int (geti 0)))

(* A load from a page that is not [Ok].  A non-speculative access to an
   unmapped or NULL page is a fatal fault; a speculative one yields NaT
   ("deferred exception") and is counted as a wild load when off the NULL
   page. *)
let deferred_load st (spec : Opcode.spec_kind) addr = function
  | Memimage.Ok -> assert false
  | Memimage.Null_page -> (
      match spec with
      | Opcode.Nonspec | Opcode.Spec_advanced ->
          raise (Fault (Printf.sprintf "load from NULL page 0x%Lx" addr))
      | Opcode.Spec_general | Opcode.Spec_sentinel -> ())
  | Memimage.Unmapped -> (
      match spec with
      | Opcode.Nonspec | Opcode.Spec_advanced ->
          raise (Fault (Printf.sprintf "load from unmapped 0x%Lx" addr))
      | Opcode.Spec_general | Opcode.Spec_sentinel ->
          st.wild_loads <- st.wild_loads + 1)

let rec alat_has key = function
  | [] -> false
  | (k, _, _) :: tl -> k = key || alat_has key tl

(* Record an advanced load; a key holds at most one entry. *)
let alat_add fr key addr size =
  fr.alat <- (key, addr, size) :: List.filter (fun (k, _, _) -> k <> key) fr.alat

(* A store to [lo0, lo0 + size) invalidates the overlapping entries. *)
let alat_store fr lo0 size =
  fr.alat <-
    List.filter
      (fun (_, a, n) ->
        let lo = max (Int64.to_int a) lo0 in
        let hi = min (Int64.to_int a + n) (lo0 + size) in
        lo >= hi)
      fr.alat

(* A load through the address in the scratch words into [d]: the generic
   shapes and speculation-check recovery. *)
let load st fr ~size ~spec ~d ~fdst ~key =
  let scratch = st.code.scratch in
  match Memimage.load_at st.mem scratch 0 size scratch 8 with
  | Memimage.Ok ->
      if spec = Opcode.Spec_advanced then alat_add fr key (get64 scratch 0) size;
      let bits = get64 scratch 8 in
      if fdst then write_flt fr d (Int64.float_of_bits bits) else write_int fr d bits
  | acc ->
      deferred_load st spec (get64 scratch 0) acc;
      write_nat fr d

(* Speculation-check recovery: reload non-speculatively into the checked
   register. *)
let recover st fr ~size ~rd ~fdst a =
  if is_nat fr a then st.nat_faults <- st.nat_faults + 1
  else begin
    set64 st.code.scratch 0 (int_of fr a);
    load st fr ~size ~spec:Opcode.Nonspec ~d:rd ~fdst ~key:0
  end

(* A store of the value at offset [vo] of [vbank] to the address at offset
   [ao] of [abank]. *)
let store st fr ~size abank ao vbank vo =
  if fr.alat <> [] then alat_store fr (Int64.to_int (get64 abank ao)) size;
  match Memimage.store_at st.mem abank ao size vbank vo with
  | Memimage.Ok -> ()
  | Memimage.Null_page | Memimage.Unmapped ->
      raise (Fault (Printf.sprintf "store to invalid 0x%Lx" (get64 abank ao)))

let exec_store st fr ~size a v =
  if is_nat fr a || is_nat fr v then st.nat_faults <- st.nat_faults + 1
  else begin
    let scratch = st.code.scratch in
    set64 scratch 0 (int_of fr a);
    (match v with
    | Flt k -> set64 scratch 8 (Int64.bits_of_float fr.flts.(k))
    | Fimm f -> set64 scratch 8 (Int64.bits_of_float f)
    | _ -> set64 scratch 8 (int_of fr v));
    store st fr ~size scratch 0 scratch 8
  end

(* Invoke function [slot] from frame [fr] (which supplies the arguments and
   the stack pointer); returns the operands of the [ret] that ended it, to
   be read in the callee's frame, [frames.(depth)] again after the return. *)
let rec invoke st fr slot (args : opnd array) =
  let df = st.code.funcs.(slot) in
  if Array.length df.blocks = 0 then
    invalid_arg ("Func.entry: empty function " ^ df.func.Func.name);
  let cfr = enter df in
  for i = 0 to min (Array.length args) (Array.length df.params) - 1 do
    transfer fr args.(i) cfr df.params.(i)
  done;
  set_int cfr sp_slot
    (if fr.inat.(sp_slot) then 0L else get64 fr.ints (sp_slot lsl 3));
  let vs = exec_block st df cfr 0 in
  df.depth <- df.depth - 1;
  vs

and call st df fr callee args dsts =
  match callee with
  | Direct slot ->
      let vs = invoke st fr slot args in
      let cdf = st.code.funcs.(slot) in
      let cfr = cdf.frames.(cdf.depth) in
      fr.alat <- [];
      for n = 0 to Array.length dsts - 1 do
        if n < Array.length vs then transfer cfr vs.(n) fr dsts.(n)
        else write_int fr dsts.(n) 0L
      done
  | Intrinsic k ->
      let n = do_intrinsic st fr k args in
      fr.alat <- [];
      for i = 0 to Array.length dsts - 1 do
        write_int fr dsts.(i) (if i < n then get64 st.code.scratch 0 else 0L)
      done
  | Indirect (o, site) ->
      if is_nat fr o then raise (Fault "indirect call through NaT");
      let off = Int64.to_int (Int64.sub (int_of fr o) Program.code_base) in
      let fi = off / 64 in
      if off < 0 || off mod 64 <> 0 || fi >= Array.length st.code.funcs then
        raise (Fault (Printf.sprintf "indirect call to 0x%Lx" (int_of fr o)));
      if st.profiling then begin
        let h = df.ind_counts.(site) in
        h.(fi) <- h.(fi) + 1
      end;
      (match st.code.targets.(fi) with
      | Indirect _ -> raise (Fault "bad call target")
      | target -> call st df fr target args dsts)
  | Undefined name -> invalid_arg ("Program.find_func: no function " ^ name)
  | Bad_target -> raise (Fault "bad call target")

and exec_block st df fr bi =
  if st.profiling then df.entries.(bi) <- df.entries.(bi) + 1;
  exec_at st df fr df.blocks.(bi) 0

and exec_at st df fr b k =
  if k = Array.length b.code then
    if b.fall < 0 then
      raise (Fault (df.func.Func.name ^ ": fell off the end of " ^ b.block.Block.label))
    else exec_block st df fr b.fall
  else begin
    if st.fuel <= 0 then raise Out_of_fuel;
    st.fuel <- st.fuel - 1;
    let i = Array.unsafe_get b.code k in
    let guard =
      match i.g with Always -> true | If p -> fr.prds.(p) | If_opnd o -> pred_of fr o
    in
    match i.op with
    | Icmp_rr { c; ct; pt; pf; a; b = b' } ->
        let r =
          if fr.inat.(a) || fr.inat.(b') then -1
          else if icmp c (get64 fr.ints (a lsl 3)) (get64 fr.ints (b' lsl 3)) then 1
          else 0
        in
        set_targets fr ct pt pf guard r;
        exec_at st df fr b (k + 1)
    | Icmp_ri { c; ct; pt; pf; a; imm } ->
        let r =
          if fr.inat.(a) then -1 else if icmp c (get64 fr.ints (a lsl 3)) imm then 1 else 0
        in
        set_targets fr ct pt pf guard r;
        exec_at st df fr b (k + 1)
    | Cmp { fcmp; c; ct; pt; pf; a; b = b'; arity_ok } ->
        let r = if guard then compare_outcome fr ~fcmp c a b' ~arity_ok else 0 in
        set_targets fr ct pt pf guard r;
        exec_at st df fr b (k + 1)
    | op when not guard ->
        (* predicate-squashed: fetched but not executed *)
        (match op with
        | Br { site; _ } when st.profiling -> df.br_exec.(site) <- df.br_exec.(site) + 1
        | _ -> ());
        exec_at st df fr b (k + 1)
    | Alu_ri { aop; d; a; imm; spec } ->
        (if fr.inat.(a) then fr.inat.(d) <- true
         else if zero_divisor aop imm then divide_by_zero fr (Dint d) aop ~spec
         else begin
           alu fr.ints (d lsl 3) aop (get64 fr.ints (a lsl 3)) imm;
           fr.inat.(d) <- false
         end);
        exec_at st df fr b (k + 1)
    | Alu_rr { aop; d; a; b = b'; spec } ->
        (if fr.inat.(a) || fr.inat.(b') then fr.inat.(d) <- true
         else
           let y = get64 fr.ints (b' lsl 3) in
           if zero_divisor aop y then divide_by_zero fr (Dint d) aop ~spec
           else begin
             alu fr.ints (d lsl 3) aop (get64 fr.ints (a lsl 3)) y;
             fr.inat.(d) <- false
           end);
        exec_at st df fr b (k + 1)
    | Const (d, v) ->
        set_int fr d v;
        exec_at st df fr b (k + 1)
    | Move (d, a) ->
        set64 fr.ints (d lsl 3) (get64 fr.ints (a lsl 3));
        fr.inat.(d) <- fr.inat.(a);
        exec_at st df fr b (k + 1)
    | Ld_r { size; spec; d; key; a } ->
        (if fr.inat.(a) then begin
           (* address is NaT: propagate (speculative chains) *)
           if spec = Opcode.Nonspec then st.nat_faults <- st.nat_faults + 1;
           fr.inat.(d) <- true
         end
         else if spec = Opcode.Spec_advanced then begin
           set64 st.code.scratch 0 (get64 fr.ints (a lsl 3));
           load st fr ~size ~spec ~d:(Dint d) ~fdst:false ~key
         end
         else
           match Memimage.load_at st.mem fr.ints (a lsl 3) size fr.ints (d lsl 3) with
           | Memimage.Ok -> fr.inat.(d) <- false
           | acc ->
               deferred_load st spec (get64 fr.ints (a lsl 3)) acc;
               fr.inat.(d) <- true);
        exec_at st df fr b (k + 1)
    | St_r { size; a; v } ->
        if fr.inat.(a) || fr.inat.(v) then st.nat_faults <- st.nat_faults + 1
        else store st fr ~size fr.ints (a lsl 3) fr.ints (v lsl 3);
        exec_at st df fr b (k + 1)
    | Ialu { aop; d; a; b = b'; spec } ->
        (if is_nat fr a || is_nat fr b' then write_nat fr d
         else
           let y = int_of fr b' in
           if zero_divisor aop y then divide_by_zero fr d aop ~spec
           else
             match d with
             | Dint k ->
                 alu fr.ints (k lsl 3) aop (int_of fr a) y;
                 fr.inat.(k) <- false
             | Drop -> ()
             | _ ->
                 alu st.code.scratch 0 aop (int_of fr a) y;
                 write_int fr d (get64 st.code.scratch 0));
        exec_at st df fr b (k + 1)
    | Falu { fop; d; a; b = b' } ->
        if is_nat fr a || is_nat fr b' then write_nat fr d
        else falu fr d fop (flt_of fr a) (flt_of fr b');
        exec_at st df fr b (k + 1)
    | Fneg (d, a) ->
        if is_nat fr a then write_nat fr d else write_flt fr d (-.flt_of fr a);
        exec_at st df fr b (k + 1)
    | Cvt_fi (d, a) ->
        if is_nat fr a then write_nat fr d
        else write_int fr d (Int64.of_float (flt_of fr a));
        exec_at st df fr b (k + 1)
    | Cvt_if (d, a) ->
        if is_nat fr a then write_nat fr d
        else write_flt fr d (Int64.to_float (int_of fr a));
        exec_at st df fr b (k + 1)
    | Mov (d, a) ->
        transfer fr a fr d;
        exec_at st df fr b (k + 1)
    | Sxt (bits, d, a) ->
        (match a with
        | (Int _ | Imm _) when not (is_nat fr a) ->
            let s = 64 - bits in
            write_int fr d (Int64.shift_right (Int64.shift_left (int_of fr a) s) s)
        | _ -> transfer fr a fr d);
        exec_at st df fr b (k + 1)
    | Lea (d, base, off) ->
        let off =
          match off with
          | Int x when not fr.inat.(x) -> get64 fr.ints (x lsl 3)
          | Imm x -> x
          | _ -> 0L
        in
        (match base with
        | Int x when not fr.inat.(x) -> write_int fr d (Int64.add (get64 fr.ints (x lsl 3)) off)
        | Imm x -> write_int fr d (Int64.add x off)
        | _ -> raise (Fault "lea base"));
        exec_at st df fr b (k + 1)
    | Ld { size; spec; d; fdst; key; a } ->
        (if is_nat fr a then begin
           if spec = Opcode.Nonspec then st.nat_faults <- st.nat_faults + 1;
           write_nat fr d
         end
         else begin
           set64 st.code.scratch 0 (int_of fr a);
           load st fr ~size ~spec ~d ~fdst ~key
         end);
        exec_at st df fr b (k + 1)
    | St { size; a; v } ->
        exec_store st fr ~size a v;
        exec_at st df fr b (k + 1)
    | Chk { size; r; rd; fdst; a } ->
        if is_nat fr r then recover st fr ~size ~rd ~fdst a;
        exec_at st df fr b (k + 1)
    | Chka { size; key; rd; fdst; a } ->
        if not (alat_has key fr.alat) then begin
          (* entry invalidated by an intervening store: recover *)
          st.alat_recoveries <- st.alat_recoveries + 1;
          recover st fr ~size ~rd ~fdst a
        end;
        exec_at st df fr b (k + 1)
    | Br { site; target; label } ->
        if target = -2 then raise (Fault "bad br");
        if st.profiling then begin
          df.br_exec.(site) <- df.br_exec.(site) + 1;
          df.br_taken.(site) <- df.br_taken.(site) + 1
        end;
        if target < 0 then raise (Fault ("branch to unknown label " ^ label));
        exec_block st df fr target
    | Call { callee; args; dsts } ->
        call st df fr callee args dsts;
        exec_at st df fr b (k + 1)
    | Ret vs -> vs
    | Nop -> exec_at st df fr b (k + 1)
    | Bad e -> raise e
  end

(* The entry function's exit code: its first returned value when that is
   a non-NaT integer, else 0. *)
let run_entry st =
  let boot = { no_frame with ints = Bytes.make 16 '\000'; inat = [| false; false |] } in
  set_int boot sp_slot (Int64.sub Program.stack_top 128L);
  match st.code.entry with
  | Direct slot -> (
      let vs = invoke st boot slot [||] in
      let df = st.code.funcs.(slot) in
      let fr = df.frames.(df.depth) in
      if Array.length vs = 0 then 0
      else
        match vs.(0) with
        | Int k when not fr.inat.(k) -> Int64.to_int (get64 fr.ints (k lsl 3))
        | Imm i -> Int64.to_int i
        | _ -> 0)
  | Intrinsic k ->
      if do_intrinsic st boot k [||] = 0 then 0 else Int64.to_int (get64 st.code.scratch 0)
  | Undefined name -> invalid_arg ("Program.find_func: no function " ^ name)
  | Indirect _ | Bad_target -> raise (Fault "bad call target")

(* Run the whole program; returns (exit code, output, final state). *)
let run ?(profile = false) ?(fuel = 400_000_000) (p : Program.t) (input : int64 array) =
  Program.assign_addresses p;
  let mem = Memimage.create () in
  Memimage.load_program mem p;
  let st =
    {
      program = p;
      mem;
      heap = Program.heap_base;
      output = Buffer.create 256;
      input;
      fuel;
      executed = 0;
      nat_faults = 0;
      wild_loads = 0;
      alat_recoveries = 0;
      profiling = profile;
      code = decode p;
    }
  in
  let code = try run_entry st with Exit_program c -> c in
  st.executed <- fuel - st.fuel;
  Array.iter (fun df -> df.frames <- [||]) st.code.funcs;
  (code, Buffer.contents st.output, st)

(* --- profile counts ------------------------------------------------------- *)

let iter_block_counts st f =
  Array.iter
    (fun df ->
      Array.iteri
        (fun i n -> if n > 0 then f df.func df.blocks.(i).block n)
        df.entries)
    st.code.funcs

let iter_branch_counts st f =
  Array.iter
    (fun df ->
      Array.iteri
        (fun s n -> if n > 0 then f df.br_instrs.(s) ~exec:n ~taken:df.br_taken.(s))
        df.br_exec)
    st.code.funcs

let iter_indirect_counts st f =
  Array.iter
    (fun df ->
      Array.iteri
        (fun s h ->
          Array.iteri
            (fun fi n ->
              if n > 0 then f df.ind_instrs.(s) st.code.funcs.(fi).func.Func.name n)
            h)
        df.ind_counts)
    st.code.funcs
