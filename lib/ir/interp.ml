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
   arrays of the [dfunc] and are read back through the [iter_*] functions. *)

type value = Vi of int64 | Vf of float | Vp of bool | Vnat

exception Fault of string
exception Exit_program of int
exception Out_of_fuel

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

type op =
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
  | Ialu of { iop : Opcode.t; d : dst; a : opnd; b : opnd; spec : bool }
  | Falu of { fop : Opcode.t; d : dst; a : opnd; b : opnd }
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
}

type code = {
  funcs : dfunc array; (* program order *)
  targets : callee array; (* what a call to function i's name runs *)
  entry : callee;
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
let sp_dst = Dint sp_slot

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
    | (Opcode.Cmp (c, ct) | Opcode.Fcmp (c, ct)), [ pt; pf ], srcs ->
        let fcmp = match i.Instr.op with Opcode.Fcmp _ -> true | _ -> false in
        let a, b, arity_ok =
          match srcs with
          | [ a; b ] -> (opnd a, opnd b, true)
          | _ -> (Imm 0L, Imm 0L, false)
        in
        Cmp { fcmp; c; ct; pt = dst pt; pf = dst pf; a; b; arity_ok }
    | (Opcode.Cmp _ | Opcode.Fcmp _), _, _ -> fault "cmp without two destinations"
    | ( ( Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem
        | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Shl | Opcode.Shr
        | Opcode.Sra ),
        [ d ],
        [ a; b ] ) ->
        Ialu
          {
            iop = i.Instr.op;
            d = dst d;
            a = opnd a;
            b = opnd b;
            spec = i.Instr.attrs.Instr.speculated;
          }
    | ( ( Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem
        | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Shl | Opcode.Shr
        | Opcode.Sra ),
        _,
        _ ) ->
        fault ("bad ALU instruction " ^ Instr.to_string i)
    | (Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv), [ d ], [ a; b ] ->
        Falu { fop = i.Instr.op; d = dst d; a = opnd a; b = opnd b }
    | (Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv), _, _ ->
        fault "bad FP instruction"
    | Opcode.Fneg, [ d ], [ a ] -> Fneg (dst d, opnd a)
    | Opcode.Fneg, _, _ -> fault "bad fneg"
    | Opcode.Cvt_fi, [ d ], [ a ] -> Cvt_fi (dst d, opnd a)
    | Opcode.Cvt_fi, _, _ -> fault "bad cvt.fi"
    | Opcode.Cvt_if, [ d ], [ a ] -> Cvt_if (dst d, opnd a)
    | Opcode.Cvt_if, _, _ -> fault "bad cvt.if"
    | Opcode.Mov, [ d ], [ a ] -> Mov (dst d, opnd a)
    | Opcode.Sxt sz, [ d ], [ a ] -> Sxt (8 * size sz, dst d, opnd a)
    | (Opcode.Mov | Opcode.Sxt _), _, _ -> fault "bad mov"
    | Opcode.Lea, [ d ], [ base; off ] -> Lea (dst d, opnd base, opnd off)
    | Opcode.Lea, _, _ -> fault "bad lea"
    | Opcode.Ld (sz, spec), [ d ], [ a ] ->
        Ld { size = size sz; spec; d = dst d; fdst = fdst d; key = alat_key d; a = opnd a }
    | Opcode.Ld _, _, _ -> fault "bad load"
    | Opcode.St sz, _, [ a; v ] -> St { size = size sz; a = opnd a; v = opnd v }
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
  }

(* --- frames --------------------------------------------------------------- *)

(* The ALAT, keyed by destination register, lives in the frame: a callee
   starts with an empty one and the caller's is flushed when a call
   returns, which is the hardware's single ALAT conservatively flushed at
   calls. *)
type frame = {
  ints : int64 array;
  inat : bool array;
  flts : float array;
  fnat : bool array;
  prds : bool array;
  mutable alat : (int * int64 * int) list; (* key, address, size *)
}

let new_frame df =
  let prds = Array.make df.n_prd false in
  prds.(p0_slot) <- true;
  {
    ints = Array.make df.n_int 0L;
    inat = Array.make df.n_int false;
    flts = Array.make df.n_flt 0.;
    fnat = Array.make df.n_flt false;
    prds;
    alat = [];
  }

(* Operand reads.  A non-integer value read as an integer (or the reverse)
   converts like a register write of the other class would. *)
let is_nat fr = function
  | Int k -> fr.inat.(k)
  | Flt k -> fr.fnat.(k)
  | Prd _ | Imm _ | Fimm _ -> false

(* [int_of]/[flt_of] assume the operand is not NaT. *)
let int_of fr = function
  | Int k -> fr.ints.(k)
  | Flt k -> Int64.of_float fr.flts.(k)
  | Prd k -> if fr.prds.(k) then 1L else 0L
  | Imm i -> i
  | Fimm f -> Int64.of_float f

let flt_of fr = function
  | Int k -> Int64.to_float fr.ints.(k)
  | Flt k -> fr.flts.(k)
  | Prd k -> if fr.prds.(k) then 1. else 0.
  | Imm i -> Int64.to_float i
  | Fimm f -> f

let pred_of fr = function
  | Int k -> (not fr.inat.(k)) && not (Int64.equal fr.ints.(k) 0L)
  | Prd k -> fr.prds.(k)
  | Imm i -> not (Int64.equal i 0L)
  | Flt _ | Fimm _ -> false

let value fr = function
  | Int k -> if fr.inat.(k) then Vnat else Vi fr.ints.(k)
  | Flt k -> if fr.fnat.(k) then Vnat else Vf fr.flts.(k)
  | Prd k -> Vp fr.prds.(k)
  | Imm i -> Vi i
  | Fimm f -> Vf f

(* Writes coerce to the destination's class. *)
let write_int fr d x =
  match d with
  | Dint k ->
      fr.ints.(k) <- x;
      fr.inat.(k) <- false
  | Dflt k ->
      fr.flts.(k) <- Int64.to_float x;
      fr.fnat.(k) <- false
  | Dprd k -> fr.prds.(k) <- not (Int64.equal x 0L)
  | Drop -> ()

let write_flt fr d f =
  match d with
  | Dint k ->
      fr.ints.(k) <- Int64.of_float f;
      fr.inat.(k) <- false
  | Dflt k ->
      fr.flts.(k) <- f;
      fr.fnat.(k) <- false
  | Dprd k -> fr.prds.(k) <- false
  | Drop -> ()

let write_pred fr d b =
  match d with
  | Dint k ->
      fr.ints.(k) <- (if b then 1L else 0L);
      fr.inat.(k) <- false
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

let write_value fr d = function
  | Vi x -> write_int fr d x
  | Vf f -> write_flt fr d f
  | Vp b -> write_pred fr d b
  | Vnat -> write_nat fr d

(* --- semantics ------------------------------------------------------------ *)

let int_binop op x y =
  match op with
  | Opcode.Add -> Int64.add x y
  | Opcode.Sub -> Int64.sub x y
  | Opcode.Mul -> Int64.mul x y
  | Opcode.Div -> Int64.div x y
  | Opcode.Rem -> Int64.rem x y
  | Opcode.And -> Int64.logand x y
  | Opcode.Or -> Int64.logor x y
  | Opcode.Xor -> Int64.logxor x y
  | Opcode.Shl -> Int64.shift_left x (Int64.to_int y land 63)
  | Opcode.Shr -> Int64.shift_right_logical x (Int64.to_int y land 63)
  | Opcode.Sra -> Int64.shift_right x (Int64.to_int y land 63)
  | _ -> invalid_arg "int_binop"

let flt_binop op x y =
  match op with
  | Opcode.Fadd -> x +. y
  | Opcode.Fsub -> x -. y
  | Opcode.Fmul -> x *. y
  | Opcode.Fdiv -> x /. y
  | _ -> invalid_arg "flt_binop"

let do_intrinsic st (k : Intrinsics.kind) (args : value array) =
  let geti n =
    if n >= Array.length args then 0L
    else
      match args.(n) with
      | Vi i -> i
      | Vf f -> Int64.of_float f
      | Vp b -> if b then 1L else 0L
      | Vnat ->
          st.nat_faults <- st.nat_faults + 1;
          0L
  in
  match k with
  | Intrinsics.Print_int ->
      Buffer.add_string st.output (Int64.to_string (geti 0));
      Buffer.add_char st.output '\n';
      [||]
  | Intrinsics.Print_char ->
      Buffer.add_char st.output (Char.chr (Int64.to_int (geti 0) land 0xff));
      [||]
  | Intrinsics.Malloc ->
      let bytes = Int64.to_int (geti 0) in
      let bytes = max 8 ((bytes + 15) / 16 * 16) in
      let addr = st.heap in
      st.heap <- Int64.add st.heap (Int64.of_int bytes);
      Memimage.map_range st.mem addr bytes;
      [| Vi addr |]
  | Intrinsics.Input ->
      let i = Int64.to_int (geti 0) in
      if i >= 0 && i < Array.length st.input then [| Vi st.input.(i) |] else [| Vi 0L |]
  | Intrinsics.Input_len -> [| Vi (Int64.of_int (Array.length st.input)) |]
  | Intrinsics.Memcpy ->
      let dst = geti 0 and src = geti 1 and n = Int64.to_int (geti 2) in
      for i = 0 to n - 1 do
        let b = Memimage.read st.mem (Int64.add src (Int64.of_int i)) 1 in
        Memimage.write st.mem (Int64.add dst (Int64.of_int i)) 1 b
      done;
      [||]
  | Intrinsics.Memset ->
      let dst = geti 0 and v = geti 1 and n = Int64.to_int (geti 2) in
      for i = 0 to n - 1 do
        Memimage.write st.mem (Int64.add dst (Int64.of_int i)) 1 v
      done;
      [||]
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

let load_into fr d ~fdst bits =
  if fdst then write_flt fr d (Int64.float_of_bits bits) else write_int fr d bits

(* Speculation-check recovery: reload non-speculatively into the checked
   register. *)
let recover st fr ~size ~rd ~fdst a =
  if is_nat fr a then st.nat_faults <- st.nat_faults + 1
  else
    let addr = int_of fr a in
    match Memimage.classify st.mem addr with
    | Memimage.Ok -> load_into fr rd ~fdst (Memimage.read st.mem addr size)
    | acc -> deferred_load st Opcode.Nonspec addr acc

(* Compare outcome: 1 true, 0 false, -1 a NaT input. *)
let compare_outcome fr ~fcmp c a b ~arity_ok =
  if not arity_ok then raise (Fault "cmp arity");
  if is_nat fr a || is_nat fr b then -1
  else if
    if fcmp then Opcode.eval_fcmp c (flt_of fr a) (flt_of fr b)
    else Opcode.eval_icmp c (int_of fr a) (int_of fr b)
  then 1
  else 0

let exec_cmp fr ~fcmp c (ct : Opcode.ctype) pt pf a b ~arity_ok guard =
  match ct with
  | Opcode.Norm ->
      if guard then (
        match compare_outcome fr ~fcmp c a b ~arity_ok with
        | -1 ->
            write_pred fr pt false;
            write_pred fr pf false
        | r ->
            write_pred fr pt (r = 1);
            write_pred fr pf (r <> 1))
  | Opcode.Unc ->
      (* unc clears both targets even when the guard is false *)
      write_pred fr pt false;
      write_pred fr pf false;
      if guard then (
        match compare_outcome fr ~fcmp c a b ~arity_ok with
        | -1 -> ()
        | r ->
            write_pred fr pt (r = 1);
            write_pred fr pf (r <> 1))
  | Opcode.Orform ->
      if guard && compare_outcome fr ~fcmp c a b ~arity_ok = 1 then begin
        write_pred fr pt true;
        write_pred fr pf true
      end

let exec_store st fr ~size a v =
  if is_nat fr a || is_nat fr v then st.nat_faults <- st.nat_faults + 1
  else
    let addr = int_of fr a in
    let x =
      match v with
      | Flt k -> Int64.bits_of_float fr.flts.(k)
      | Fimm f -> Int64.bits_of_float f
      | _ -> int_of fr v
    in
    (* invalidate overlapping advanced-load entries *)
    if fr.alat <> [] then begin
      let lo0 = Int64.to_int addr in
      fr.alat <-
        List.filter
          (fun (_, a, n) ->
            let lo = max (Int64.to_int a) lo0 in
            let hi = min (Int64.to_int a + n) (lo0 + size) in
            lo >= hi)
          fr.alat
    end;
    match Memimage.classify st.mem addr with
    | Memimage.Ok -> Memimage.write st.mem addr size x
    | Memimage.Null_page | Memimage.Unmapped ->
        raise (Fault (Printf.sprintf "store to invalid 0x%Lx" addr))

(* Execute one function invocation; returns the returned values. *)
let rec exec_call st slot (args : value array) (caller_sp : int64) =
  let df = st.code.funcs.(slot) in
  if Array.length df.blocks = 0 then
    invalid_arg ("Func.entry: empty function " ^ df.func.Func.name);
  let fr = new_frame df in
  for i = 0 to min (Array.length args) (Array.length df.params) - 1 do
    write_value fr df.params.(i) args.(i)
  done;
  write_int fr sp_dst caller_sp;
  exec_block st df fr 0

and call_target st target args sp =
  match target with
  | Intrinsic k -> do_intrinsic st k args
  | Direct slot -> exec_call st slot args sp
  | Undefined name -> invalid_arg ("Program.find_func: no function " ^ name)
  | Indirect _ | Bad_target -> raise (Fault "bad call target")

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
    let i = b.code.(k) in
    let guard =
      match i.g with Always -> true | If p -> fr.prds.(p) | If_opnd o -> pred_of fr o
    in
    match i.op with
    | Cmp { fcmp; c; ct; pt; pf; a; b = b'; arity_ok } ->
        exec_cmp fr ~fcmp c ct pt pf a b' ~arity_ok guard;
        exec_at st df fr b (k + 1)
    | op when not guard ->
        (* predicate-squashed: fetched but not executed *)
        (match op with
        | Br { site; _ } when st.profiling -> df.br_exec.(site) <- df.br_exec.(site) + 1
        | _ -> ());
        exec_at st df fr b (k + 1)
    | Ialu { iop; d; a; b = b'; spec } ->
        (if is_nat fr a || is_nat fr b' then write_nat fr d
         else
           let x = int_of fr a and y = int_of fr b' in
           match iop with
           | (Opcode.Div | Opcode.Rem) when Int64.equal y 0L ->
               (* Div/Rem by zero under speculation must defer, not kill. *)
               if spec then write_nat fr d
               else
                 raise
                   (Fault
                      (if iop = Opcode.Div then "division by zero"
                       else "remainder by zero"))
           | _ -> write_int fr d (int_binop iop x y));
        exec_at st df fr b (k + 1)
    | Falu { fop; d; a; b = b' } ->
        if is_nat fr a || is_nat fr b' then write_nat fr d
        else write_flt fr d (flt_binop fop (flt_of fr a) (flt_of fr b'));
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
        (match (d, a) with
        | Dint x, Int y ->
            fr.ints.(x) <- fr.ints.(y);
            fr.inat.(x) <- fr.inat.(y)
        | _ -> write_value fr d (value fr a));
        exec_at st df fr b (k + 1)
    | Sxt (bits, d, a) ->
        (match a with
        | (Int _ | Imm _) when not (is_nat fr a) ->
            let s = 64 - bits in
            write_int fr d (Int64.shift_right (Int64.shift_left (int_of fr a) s) s)
        | _ -> write_value fr d (value fr a));
        exec_at st df fr b (k + 1)
    | Lea (d, base, off) ->
        let base =
          match base with
          | Int x when not fr.inat.(x) -> fr.ints.(x)
          | Imm x -> x
          | _ -> raise (Fault "lea base")
        in
        let off =
          match off with
          | Int x when not fr.inat.(x) -> fr.ints.(x)
          | Imm x -> x
          | _ -> 0L
        in
        write_int fr d (Int64.add base off);
        exec_at st df fr b (k + 1)
    | Ld { size; spec; d; fdst; key; a } ->
        (if is_nat fr a then begin
           (* address is NaT: propagate (speculative chains) *)
           if spec = Opcode.Nonspec then st.nat_faults <- st.nat_faults + 1;
           write_nat fr d
         end
         else
           let addr = int_of fr a in
           match Memimage.classify st.mem addr with
           | Memimage.Ok ->
               if spec = Opcode.Spec_advanced then
                 fr.alat <-
                   (key, addr, size) :: List.filter (fun (k', _, _) -> k' <> key) fr.alat;
               load_into fr d ~fdst (Memimage.read st.mem addr size)
           | acc ->
               deferred_load st spec addr acc;
               write_nat fr d);
        exec_at st df fr b (k + 1)
    | St { size; a; v } ->
        exec_store st fr ~size a v;
        exec_at st df fr b (k + 1)
    | Chk { size; r; rd; fdst; a } ->
        if is_nat fr r then recover st fr ~size ~rd ~fdst a;
        exec_at st df fr b (k + 1)
    | Chka { size; key; rd; fdst; a } ->
        if not (List.exists (fun (k', _, _) -> k' = key) fr.alat) then begin
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
        let argv = Array.map (value fr) args in
        let sp = if fr.inat.(sp_slot) then 0L else fr.ints.(sp_slot) in
        let results =
          match callee with
          | Indirect (o, site) ->
              if is_nat fr o then raise (Fault "indirect call through NaT");
              let addr = int_of fr o in
              let off = Int64.to_int (Int64.sub addr Program.code_base) in
              let fi = off / 64 in
              if off < 0 || off mod 64 <> 0 || fi >= Array.length st.code.funcs then
                raise (Fault (Printf.sprintf "indirect call to 0x%Lx" addr));
              if st.profiling then begin
                let h = df.ind_counts.(site) in
                h.(fi) <- h.(fi) + 1
              end;
              call_target st st.code.targets.(fi) argv sp
          | target -> call_target st target argv sp
        in
        fr.alat <- [];
        for n = 0 to Array.length dsts - 1 do
          if n < Array.length results then write_value fr dsts.(n) results.(n)
          else write_int fr dsts.(n) 0L
        done;
        exec_at st df fr b (k + 1)
    | Ret vs -> Array.map (value fr) vs
    | Nop -> exec_at st df fr b (k + 1)
    | Bad e -> raise e
  end

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
  let init_sp = Int64.sub Program.stack_top 128L in
  let code =
    try
      match call_target st st.code.entry [||] init_sp with
      | [||] -> 0
      | r -> ( match r.(0) with Vi i -> Int64.to_int i | _ -> 0)
    with Exit_program c -> c
  in
  st.executed <- fuel - st.fuel;
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
