(* High-level IR interpreter.  Executes the IR directly, at any point of the
   compilation pipeline: the reference semantics for differential testing
   of transformations and — with [~profile:true] — the engine behind
   control-flow profiling (Section 3.1 of the paper).

   It models the pieces of IA-64 semantics the structural transforms rely on:
   predicated execution, NaT bits produced by control-speculative loads to
   invalid addresses, speculation checks, and compare types.

   Each run first decodes the program (DESIGN.md §10).  Registers are
   renumbered densely per bank, so a frame holds only the registers its
   function mentions; branch targets and fall-throughs resolve to block
   indices, calls to a function slot, an intrinsic or a function-pointer
   operand, and [Sym] operands to addresses.  Every instruction becomes a
   closure specialized on its operand shape, opcode, compare relation and
   type, and guard, so executing it dispatches on nothing; the ALU and
   compare closures are {!Isa}'s, built on the frame's {!Isa.bank}.  A
   block is an array of segments, each ending at a [br], [br.call] or
   [br.ret] (or at the block's end); a segment whose instructions the
   remaining fuel covers is charged once.  Profile counts live in int arrays of the
   decoded function and are read back through the [iter_*] functions.

   Executing an instruction allocates nothing: integer registers live
   unboxed in a [Bytes] bank, eight bytes per slot; an integer-register
   load or store that hits the image's page-handle cache is made inline,
   and every other access goes through [Memimage]'s bank-offset entry
   points; and a call binds its arguments straight into the callee's bank,
   on a frame reused from the callee's own stack of frames. *)

exception Fault = Isa.Fault
exception Out_of_fuel = Isa.Out_of_fuel

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* --- decoded form --------------------------------------------------------- *)

(* Registers are slots of the frame's three banks: integers (Int and Brr
   registers share it, as in the simulator), floats and predicates.
   Labels read as 0 and symbols as their address.  Writes to the
   hardwired r0 and p0 go to a sink slot of their bank, which nothing
   reads. *)
type opnd = Isa.opnd = Int of int | Flt of int | Prd of int | Imm of int64 | Fimm of float
type dst = Isa.dst = Dint of int | Dflt of int | Dprd of int
type guard = Isa.guard = Always | If of int (* predicate slot *) | If_opnd of opnd

type callee =
  | Intrinsic of Intrinsics.kind
  | Direct of int (* function slot *)
  | Undefined of string

(* The ALAT lives in the frame: a callee starts with an empty one and the
   caller's is flushed when a call returns, which is the hardware's single
   ALAT conservatively flushed at calls. *)
type frame = Isa.bank = {
  ints : Bytes.t; (* slot k at byte offset 8k *)
  inat : bool array;
  flts : float array;
  fnat : bool array;
  prds : bool array;
  mutable alat : Isa.Alat.t;
}

(* A decoded instruction: a closure over its slots and constants.  The
   ALU and compare ops are {!Isa}'s own. *)
type op = Isa.op

(* How a segment ends. *)
type exit =
  | Fall (* the end of the block: on to its layout successor *)
  | Jump of { site : int; target : int } (* an unguarded br to a known label *)
  | Br of { g : guard; site : int; target : int; label : string }
      (* target: block index; -1 unknown label, -2 malformed *)
  | Step of op (* a br.call (its guard inside); then the next segment *)
  | Ret of { g : guard; vs : opnd array }

type seg = {
  ops : op array;
  cost : int; (* instructions: the ops and the exit's, if any *)
  exit : exit;
}

type dblock = {
  block : Block.t;
  segs : seg array;
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
  (* frames by recursion depth: [frames.(depth)] is the next invocation's,
     [no_frame] where none was made yet *)
  mutable frames : frame array;
  mutable depth : int;
}

(* Filled in by [decode], whose closures capture the state. *)
type code = {
  mutable funcs : dfunc array; (* program order *)
  mutable targets : callee array; (* what a call to function i's name runs *)
  mutable entry : callee;
  scratch : Bytes.t;
      (* an address (offset 0) and a value (offset 8) that are not in a
         register bank; an intrinsic's arguments (one word each) and
         result (offset 0) *)
  arg_nats : bool array; (* the NaT bits of an intrinsic's arguments *)
}

type state = {
  program : Program.t;
  mem : Memimage.t;
  rt : Intrinsics.runtime;
  mutable fuel : int; (* remaining dynamic instructions *)
  mutable executed : int;
  mutable nat_faults : int; (* NaT consumed by a non-speculative op *)
  mutable wild_loads : int; (* speculative accesses to unmapped pages *)
  mutable alat_recoveries : int; (* chk.a found its entry invalidated *)
  profiling : bool;
  code : code;
}

(* Fixed slots: r0, sp (r12) and the sink of r0's writes open the integer
   bank; p0 and the sink of p0's writes the predicate bank.  r0 reads 0
   and p0 true because nothing writes them. *)
let r0_slot = 0
let sp_slot = 1
let r0_sink = 2
let p0_slot = 0
let p0_sink = 1

(* --- frames --------------------------------------------------------------- *)

let no_frame = Isa.new_bank ~ints:0 ~flts:0 ~prds:0

let new_frame df =
  let fr = Isa.new_bank ~ints:df.n_int ~flts:df.n_flt ~prds:df.n_prd in
  fr.prds.(p0_slot) <- true;
  fr

(* The frame of a new invocation of [df], every register reading 0 (p0
   true) as in a fresh one.  A reused frame is cleared with plain loops:
   [Array.fill] is a runtime call. *)
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
    for k = 0 to df.n_int - 1 do
      Array.unsafe_set fr.inat k false
    done;
    for k = 0 to df.n_flt - 1 do
      Array.unsafe_set fr.flts k 0.;
      Array.unsafe_set fr.fnat k false
    done;
    for k = 0 to df.n_prd - 1 do
      Array.unsafe_set fr.prds k false
    done;
    fr.prds.(p0_slot) <- true;
    Isa.Alat.flush fr.alat;
    fr
  end

(* --- registers and operands ------------------------------------------------ *)

(* Integer slots.  A decoded slot always lies inside its function's banks,
   which is what makes the unchecked accessors safe.  The closures below
   read and write the bank through these local copies of {!Isa}'s: the
   dev build compiles with [-opaque], where a call into another module is
   not inlined and boxes an [int64] it passes or returns. *)
let[@inline] nat fr k = Array.unsafe_get fr.inat k
let[@inline] nat2 fr a b = Array.unsafe_get fr.inat a || Array.unsafe_get fr.inat b
let[@inline] geti fr k = get64 fr.ints (k lsl 3)

let[@inline] seti fr k x =
  set64 fr.ints (k lsl 3) x;
  Array.unsafe_set fr.inat k false

(* The result is deferred: the destination becomes NaT. *)
let[@inline] defer fr k = Array.unsafe_set fr.inat k true

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

let[@inline] guard_ok fr = function
  | Always -> true
  | If p -> Array.unsafe_get fr.prds p
  | If_opnd o -> pred_of fr o

(* Writes coerce to the destination's class. *)
let[@inline] write_int fr d x =
  match d with
  | Dint k -> seti fr k x
  | Dflt k ->
      fr.flts.(k) <- Int64.to_float x;
      fr.fnat.(k) <- false
  | Dprd k -> fr.prds.(k) <- not (Int64.equal x 0L)

let[@inline] write_flt fr d f =
  match d with
  | Dint k -> seti fr k (Int64.of_float f)
  | Dflt k ->
      fr.flts.(k) <- f;
      fr.fnat.(k) <- false
  | Dprd k -> fr.prds.(k) <- false

let[@inline] write_pred fr d b =
  match d with
  | Dint k -> seti fr k (if b then 1L else 0L)
  | Dflt k ->
      fr.flts.(k) <- (if b then 1. else 0.);
      fr.fnat.(k) <- false
  | Dprd k -> fr.prds.(k) <- b

let write_nat fr = function
  | Dint k -> fr.inat.(k) <- true
  | Dflt k -> fr.fnat.(k) <- true
  | Dprd k -> fr.prds.(k) <- false

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

(* --- semantics shared by the closures ------------------------------------ *)

(* [do_intrinsic] leaves its result, if any, at offset 0 of the scratch
   words and returns how many it has (0 or 1). *)
let do_intrinsic st fr (k : Intrinsics.kind) (args : opnd array) =
  let n = min (Array.length args) (Intrinsics.arity k) in
  let buf = st.code.scratch and nats = st.code.arg_nats in
  for j = 0 to n - 1 do
    let a = args.(j) in
    nats.(j) <- is_nat fr a;
    if not nats.(j) then set64 buf (j lsl 3) (int_of fr a)
  done;
  st.nat_faults <- st.nat_faults + Intrinsics.nat_args k nats n;
  Intrinsics.call st.rt st.mem k buf nats n;
  Intrinsics.results k

(* A load from a page that is not [Ok]: a fatal fault, or a deferral (the
   destination becomes NaT), counted as a wild load off the NULL page. *)
let deferred_load st spec addr acc =
  Option.iter (fun m -> raise (Fault m)) (Isa.access_fault spec acc addr);
  if acc = Memimage.Unmapped then st.wild_loads <- st.wild_loads + 1

(* The slow paths of loads and stores, out of line: everything the inline
   hit paths of [ld_r] and [st_r] leave, and the generic shapes.  They
   classify the access and apply the fault, NaT-deferral, wild-load and
   ALAT rules. *)

(* A load from the address in integer slot [a] into slot [d]. *)
let load_slot st fr ~size ~spec d a =
  match Memimage.load_at st.mem fr.ints (a lsl 3) size fr.ints (d lsl 3) with
  | Memimage.Ok -> Array.unsafe_set fr.inat d false
  | acc ->
      deferred_load st spec (geti fr a) acc;
      defer fr d

(* A load through the address in the scratch words into [d]: the generic
   shapes and ld.a. *)
let load st fr ~size ~spec ~d ~fdst ~key =
  let scratch = st.code.scratch in
  match Memimage.load_at st.mem scratch 0 size scratch 8 with
  | Memimage.Ok ->
      if spec = Opcode.Spec_advanced then
        Isa.Alat.insert fr.alat key (Int64.to_int (get64 scratch 0)) size;
      let bits = get64 scratch 8 in
      if fdst then write_flt fr d (Int64.float_of_bits bits) else write_int fr d bits
  | acc ->
      deferred_load st spec (get64 scratch 0) acc;
      write_nat fr d

(* Speculation-check recovery into the checked register. *)
let recover st fr ~size ~rd ~fdst a =
  let nat = is_nat fr a in
  let addr = if nat then 0L else int_of fr a in
  match Isa.recover st.mem ~nat addr ~size st.code.scratch 8 with
  | Isa.Reloaded ->
      let bits = get64 st.code.scratch 8 in
      if fdst then write_flt fr rd (Int64.float_of_bits bits) else write_int fr rd bits
  | Isa.Nat_address ->
      st.nat_faults <- st.nat_faults + 1;
      write_nat fr rd
  | Isa.Recovery_fault m -> raise (Fault m)

(* A store of the value at offset [vo] of [vbank] to the address at offset
   [ao] of [abank]. *)
let store st fr ~size abank ao vbank vo =
  if fr.alat.Isa.Alat.count > 0 then
    Isa.Alat.snoop fr.alat (Int64.to_int (get64 abank ao)) size;
  match Memimage.store_at st.mem abank ao size vbank vo with
  | Memimage.Ok -> ()
  | acc -> Option.iter (fun m -> raise (Fault m)) (Isa.access_fault Opcode.Nonspec acc (get64 abank ao))

(* --- execution ------------------------------------------------------------ *)

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
  seti cfr sp_slot (if fr.inat.(sp_slot) then 0L else get64 fr.ints (sp_slot lsl 3));
  let vs = exec_block st df cfr 0 in
  df.depth <- df.depth - 1;
  vs

and call_direct st fr slot args dsts =
  let vs = invoke st fr slot args in
  let cdf = st.code.funcs.(slot) in
  let cfr = cdf.frames.(cdf.depth) in
  Isa.Alat.flush fr.alat;
  for n = 0 to Array.length dsts - 1 do
    if n < Array.length vs then transfer cfr vs.(n) fr dsts.(n) else write_int fr dsts.(n) 0L
  done

and call_intrinsic st fr k args dsts =
  let n = do_intrinsic st fr k args in
  Isa.Alat.flush fr.alat;
  for i = 0 to Array.length dsts - 1 do
    write_int fr dsts.(i) (if i < n then get64 st.code.scratch 0 else 0L)
  done

and call_to st fr callee args dsts =
  match callee with
  | Direct slot -> call_direct st fr slot args dsts
  | Intrinsic k -> call_intrinsic st fr k args dsts
  | Undefined name -> invalid_arg ("Program.find_func: no function " ^ name)

and exec_block st df fr bi =
  if st.profiling then df.entries.(bi) <- df.entries.(bi) + 1;
  exec_seg st df fr (Array.unsafe_get df.blocks bi) 0

(* Run segment [si] of block [b].  When the fuel does not cover the whole
   segment it runs op by op, so [Out_of_fuel] fires at the instruction it
   would have fired at one at a time. *)
and exec_seg st df fr b si =
  let s = Array.unsafe_get b.segs si in
  let ops = s.ops in
  if st.fuel >= s.cost then begin
    st.fuel <- st.fuel - s.cost;
    let n = Array.length ops in
    (* the first ops of a segment each get their own call site, which lets
       the host predict their targets by position *)
    if n > 0 then begin
      (Array.unsafe_get ops 0) fr;
      if n > 1 then begin
        (Array.unsafe_get ops 1) fr;
        if n > 2 then begin
          (Array.unsafe_get ops 2) fr;
          if n > 3 then begin
            (Array.unsafe_get ops 3) fr;
            for k = 4 to n - 1 do
              (Array.unsafe_get ops k) fr
            done
          end
        end
      end
    end
  end
  else begin
    for k = 0 to Array.length ops - 1 do
      if st.fuel <= 0 then raise Out_of_fuel;
      st.fuel <- st.fuel - 1;
      (Array.unsafe_get ops k) fr
    done;
    if s.cost > Array.length ops then begin
      if st.fuel <= 0 then raise Out_of_fuel;
      st.fuel <- st.fuel - 1
    end
  end;
  match s.exit with
  | Fall ->
      if b.fall < 0 then
        raise (Fault (df.func.Func.name ^ ": fell off the end of " ^ b.block.Block.label));
      exec_block st df fr b.fall
  | Jump { site; target } ->
      if st.profiling then begin
        df.br_exec.(site) <- df.br_exec.(site) + 1;
        df.br_taken.(site) <- df.br_taken.(site) + 1
      end;
      exec_block st df fr target
  | Br { g; site; target; label } ->
      if guard_ok fr g then begin
        if target = -2 then raise (Fault "bad br");
        if st.profiling then begin
          df.br_exec.(site) <- df.br_exec.(site) + 1;
          df.br_taken.(site) <- df.br_taken.(site) + 1
        end;
        if target < 0 then raise (Fault ("branch to unknown label " ^ label));
        exec_block st df fr target
      end
      else begin
        (* predicate-squashed: fetched but not executed *)
        if st.profiling then df.br_exec.(site) <- df.br_exec.(site) + 1;
        exec_seg st df fr b (si + 1)
      end
  | Step op ->
      op fr;
      exec_seg st df fr b (si + 1)
  | Ret { g; vs } -> if guard_ok fr g then vs else exec_seg st df fr b (si + 1)

(* --- decode: instructions to closures -------------------------------------- *)

let nop : op = fun _ -> ()
let fault e : op = fun _ -> raise e

(* The inline hit path of the integer-register loads and stores
   (DESIGN.md §10).  The dev build compiles with -opaque, so a call of
   [Memimage.load_at] is an unknown call; the common access is decided
   here, on the image's page-handle cache, which its closures capture.
   [hit_slot] is the slot of the page holding all [size] bytes at [addr],
   or -1: page 0 (the NaT page, which only the slow path classifies), a
   page not in the cache, or an access over the page's edge.  The index is
   a logical shift of the whole address: one taken from [Int64.to_int]
   would drop bit 63 and alias a low page. *)
let[@inline] hit_slot hidx addr size =
  let idx = Int64.to_int (Int64.shift_right_logical addr Memimage.page_bits) in
  let slot = idx land (Array.length hidx - 1) in
  if
    idx <> 0
    && Array.unsafe_get hidx slot = idx
    && (Int64.to_int addr land (Memimage.page_size - 1)) + size <= Memimage.page_size
  then slot
  else -1

(* An integer-register load whose address is NaT: the destination becomes
   NaT too (speculative chains), one NaT fault if the load is not
   speculative. *)
let[@inline] nat_address st fr nonspec d =
  if nonspec then st.nat_faults <- st.nat_faults + 1;
  defer fr d

(* One closure per access size, so the hit path makes its [Bytes] access
   without a dispatch. *)
let ld_r st ~size ~spec d a : op =
  let nonspec = spec = Opcode.Nonspec in
  let hidx = st.mem.Memimage.hidx and hpage = st.mem.Memimage.hpage in
  match size with
  | 8 ->
      fun fr ->
        if nat fr a then nat_address st fr nonspec d
        else
          let addr = geti fr a in
          let slot = hit_slot hidx addr 8 in
          if slot < 0 then load_slot st fr ~size ~spec d a
          else
            seti fr d
              (Bytes.get_int64_le (Array.unsafe_get hpage slot)
                 (Int64.to_int addr land (Memimage.page_size - 1)))
  | 4 ->
      fun fr ->
        if nat fr a then nat_address st fr nonspec d
        else
          let addr = geti fr a in
          let slot = hit_slot hidx addr 4 in
          if slot < 0 then load_slot st fr ~size ~spec d a
          else
            seti fr d
              (Int64.of_int32
                 (Bytes.get_int32_le (Array.unsafe_get hpage slot)
                    (Int64.to_int addr land (Memimage.page_size - 1))))
  | _ ->
      fun fr ->
        if nat fr a then nat_address st fr nonspec d
        else
          let addr = geti fr a in
          let slot = hit_slot hidx addr 1 in
          if slot < 0 then load_slot st fr ~size ~spec d a
          else
            seti fr d
              (Int64.of_int
                 (Bytes.get_uint8 (Array.unsafe_get hpage slot)
                    (Int64.to_int addr land (Memimage.page_size - 1))))

let ld_any st ~size ~spec ~d ~fdst ~key a : op =
 fun fr ->
  if is_nat fr a then begin
    if spec = Opcode.Nonspec then st.nat_faults <- st.nat_faults + 1;
    write_nat fr d
  end
  else begin
    set64 st.code.scratch 0 (int_of fr a);
    load st fr ~size ~spec ~d ~fdst ~key
  end

(* A store while the ALAT holds an entry takes the slow path, which
   snoops it. *)
let st_r st ~size a v : op =
  let hidx = st.mem.Memimage.hidx and hpage = st.mem.Memimage.hpage in
  match size with
  | 8 ->
      fun fr ->
        if nat2 fr a v then st.nat_faults <- st.nat_faults + 1
        else
          let addr = geti fr a in
          let slot = hit_slot hidx addr 8 in
          if slot < 0 || fr.alat.Isa.Alat.count > 0 then
            store st fr ~size fr.ints (a lsl 3) fr.ints (v lsl 3)
          else
            Bytes.set_int64_le (Array.unsafe_get hpage slot)
              (Int64.to_int addr land (Memimage.page_size - 1))
              (geti fr v)
  | 4 ->
      fun fr ->
        if nat2 fr a v then st.nat_faults <- st.nat_faults + 1
        else
          let addr = geti fr a in
          let slot = hit_slot hidx addr 4 in
          if slot < 0 || fr.alat.Isa.Alat.count > 0 then
            store st fr ~size fr.ints (a lsl 3) fr.ints (v lsl 3)
          else
            Bytes.set_int32_le (Array.unsafe_get hpage slot)
              (Int64.to_int addr land (Memimage.page_size - 1))
              (Int64.to_int32 (geti fr v))
  | _ ->
      fun fr ->
        if nat2 fr a v then st.nat_faults <- st.nat_faults + 1
        else
          let addr = geti fr a in
          let slot = hit_slot hidx addr 1 in
          if slot < 0 || fr.alat.Isa.Alat.count > 0 then
            store st fr ~size fr.ints (a lsl 3) fr.ints (v lsl 3)
          else
            Bytes.set_uint8 (Array.unsafe_get hpage slot)
              (Int64.to_int addr land (Memimage.page_size - 1))
              (Int64.to_int (geti fr v) land 0xff)

let st_any st ~size a v : op =
 fun fr ->
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

let const d v : op = fun fr -> seti fr d v

(* --- decode: functions and programs ---------------------------------------- *)

let bank (r : Reg.t) =
  match r.Reg.cls with Reg.Int | Reg.Brr -> 0 | Reg.Flt -> 1 | Reg.Prd -> 2

let transfers (i : Instr.t) =
  match i.Instr.op with Opcode.Br | Opcode.Br_call | Opcode.Br_ret -> true | _ -> false

let decode_func st ~globals ~func_index ~resolve ~nfuncs (f : Func.t) =
  let regs = Hashtbl.create 64 in
  let next = [| 3; 0; 2 |] in
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
    | 0 -> Dint (if r.Reg.phys && s = r0_slot then r0_sink else s)
    | 1 -> Dflt s
    | _ -> Dprd (if r.Reg.phys && s = p0_slot then p0_sink else s)
  in
  let alat_key (r : Reg.t) = Isa.Alat.key r.Reg.cls (slot r) in
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
  let inds = ref [] in
  let mov d a : op =
    match (dst d, opnd a) with
    | Dint d, Int a ->
        fun fr ->
          set64 fr.ints (d lsl 3) (geti fr a);
          Array.unsafe_set fr.inat d (nat fr a)
    | Dint d, Imm v -> const d v
    | d, a -> fun fr -> transfer fr a fr d
  in
  (* sign extension from [bits]; any other source class moves unchanged *)
  let sxt bits d a : op =
    let s = 64 - bits in
    match (dst d, opnd a) with
    | Dint d, Int a ->
        fun fr ->
          if nat fr a then defer fr d
          else seti fr d (Int64.shift_right (Int64.shift_left (geti fr a) s) s)
    | d, Imm v ->
        let v = Int64.shift_right (Int64.shift_left v s) s in
        fun fr -> write_int fr d v
    | d, Int a ->
        fun fr ->
          if nat fr a then write_nat fr d
          else write_int fr d (Int64.shift_right (Int64.shift_left (geti fr a) s) s)
    | d, a -> fun fr -> transfer fr a fr d
  in
  (* br.call: a direct or intrinsic target is resolved here, a function
     pointer when the call runs *)
  let call (i : Instr.t) target args : op =
    let indirect =
      match target with
      | Operand.Reg r ->
          let h = Array.make nfuncs 0 in
          inds := (i, h) :: !inds;
          Some (reg r, h)
      | _ -> None
    in
    let args = Array.of_list (List.map opnd args) in
    let dsts = Array.of_list (List.map dst i.Instr.dsts) in
    match (target, indirect) with
    | Operand.Sym name, _ -> (
        match resolve name with
        | Direct slot -> fun fr -> call_direct st fr slot args dsts
        | Intrinsic k -> fun fr -> call_intrinsic st fr k args dsts
        | Undefined name -> fault (Invalid_argument ("Program.find_func: no function " ^ name)))
    | _, Some (o, h) ->
        fun fr ->
          if is_nat fr o then raise (Fault "indirect call through NaT");
          let off = Int64.to_int (Int64.sub (int_of fr o) Program.code_base) in
          let fi = off / 64 in
          if off < 0 || off mod 64 <> 0 || fi >= Array.length st.code.funcs then
            raise (Fault (Printf.sprintf "indirect call to 0x%Lx" (int_of fr o)));
          if st.profiling then h.(fi) <- h.(fi) + 1;
          call_to st fr st.code.targets.(fi) args dsts
    | _ -> fault (Fault "bad call target")
  in
  let body (i : Instr.t) : op =
    let size sz = Opcode.size_bytes sz in
    let fdst (r : Reg.t) = r.Reg.cls = Reg.Flt in
    match (i.Instr.op, i.Instr.dsts, i.Instr.srcs) with
    | ( ( Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Div | Opcode.Rem | Opcode.And
        | Opcode.Or | Opcode.Xor | Opcode.Shl | Opcode.Shr | Opcode.Sra | Opcode.Lea ),
        [ d ],
        [ a; b ] ) ->
        Isa.alu i.Instr.op ~spec:i.Instr.attrs.Instr.speculated (dst d) (opnd a) (opnd b)
    | (Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv), [ d ], [ a; b ] ->
        Isa.falu i.Instr.op (dst d) (opnd a) (opnd b)
    | Opcode.Fneg, [ d ], [ a ] ->
        let d = dst d and a = opnd a in
        fun fr -> if is_nat fr a then write_nat fr d else write_flt fr d (-.flt_of fr a)
    | Opcode.Cvt_fi, [ d ], [ a ] ->
        let d = dst d and a = opnd a in
        fun fr ->
          if is_nat fr a then write_nat fr d else write_int fr d (Int64.of_float (flt_of fr a))
    | Opcode.Cvt_if, [ d ], [ a ] ->
        let d = dst d and a = opnd a in
        fun fr ->
          if is_nat fr a then write_nat fr d else write_flt fr d (Int64.to_float (int_of fr a))
    | Opcode.Mov, [ d ], [ a ] -> mov d a
    | Opcode.Sxt sz, [ d ], [ a ] -> sxt (8 * size sz) d a
    | Opcode.Ld (sz, spec), [ d ], [ a ] -> (
        match (dst d, opnd a) with
        | Dint di, Int a when spec <> Opcode.Spec_advanced -> ld_r st ~size:(size sz) ~spec di a
        | dd, a -> ld_any st ~size:(size sz) ~spec ~d:dd ~fdst:(fdst d) ~key:(alat_key d) a)
    | Opcode.St sz, _, [ a; v ] -> (
        match (opnd a, opnd v) with
        | Int a, Int v -> st_r st ~size:(size sz) a v
        | a, v -> st_any st ~size:(size sz) a v)
    | Opcode.Chk sz, _, [ Operand.Reg r; a ] ->
        let size = size sz and ro = reg r and rd = dst r and fdst = fdst r and a = opnd a in
        fun fr -> if is_nat fr ro then recover st fr ~size ~rd ~fdst a
    | Opcode.Chka sz, _, [ Operand.Reg r; a ] ->
        let size = size sz and key = alat_key r and rd = dst r and fdst = fdst r and a = opnd a in
        fun fr ->
          if not (Isa.Alat.mem fr.alat key) then begin
            (* entry invalidated by an intervening store: recover *)
            st.alat_recoveries <- st.alat_recoveries + 1;
            recover st fr ~size ~rd ~fdst a
          end
    | (Opcode.Alloc | Opcode.Nop), _, _ -> nop
    | _ -> fault (Fault (Isa.malformed i))
  in
  let guard (i : Instr.t) =
    match i.Instr.pred with
    | None -> Always
    | Some p when p.Reg.cls = Reg.Prd -> If (slot p)
    | Some p -> If_opnd (reg p)
  in
  (* A symbol that does not resolve raises when its instruction runs. *)
  let op g (i : Instr.t) : op =
    try
      match (i.Instr.op, i.Instr.dsts, i.Instr.srcs) with
      | (Opcode.Cmp _ | Opcode.Fcmp _), [ pt; pf ], [ a; b ] -> (
          match (dst pt, dst pf) with
          | Dprd pt, Dprd pf -> Isa.cmp i.Instr.op g pt pf (opnd a) (opnd b)
          | _ -> Isa.guarded g (body i))
      | _ -> Isa.guarded g (body i)
    with Invalid_argument _ as e -> Isa.guarded g (fault e)
  in
  let exit g (i : Instr.t) =
    match (i.Instr.op, i.Instr.srcs) with
    | Opcode.Br, srcs -> (
        brs := i :: !brs;
        let site = !n_br in
        incr n_br;
        match srcs with
        | [ Operand.Label l ] -> (
            match (Hashtbl.find_opt labels l, g) with
            | Some target, Always -> Jump { site; target }
            | t, g -> Br { g; site; target = Option.value t ~default:(-1); label = l })
        | _ -> Br { g; site; target = -2; label = "" })
    | Opcode.Br_call, target :: args -> (
        try Step (Isa.guarded g (call i target args))
        with Invalid_argument _ as e -> Step (Isa.guarded g (fault e)))
    | Opcode.Br_ret, srcs -> (
        try Ret { g; vs = Array.of_list (List.map opnd srcs) }
        with Invalid_argument _ as e -> Step (Isa.guarded g (fault e)))
    | _ -> Step (Isa.guarded g (fault (Fault (Isa.malformed i))))
  in
  let decode_block (b : Block.t) =
    let segs = ref [] and ops = ref [] in
    let finish exit =
      let ops' = Array.of_list (List.rev !ops) in
      let cost = Array.length ops' + match exit with Fall -> 0 | _ -> 1 in
      segs := { ops = ops'; cost; exit } :: !segs;
      ops := []
    in
    List.iter
      (fun i ->
        let g = guard i in
        if transfers i then finish (exit g i) else ops := op g i :: !ops)
      b.Block.instrs;
    finish Fall;
    Array.of_list (List.rev !segs)
  in
  let params = Array.of_list (List.map dst f.Func.params) in
  let n = Array.length blocks in
  let dblocks =
    Array.mapi
      (fun k (b : Block.t) ->
        { block = b; segs = decode_block b; fall = (if k + 1 < n then k + 1 else -1) })
      blocks
  in
  let br_instrs = Array.of_list (List.rev !brs) in
  let inds = List.rev !inds in
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
    ind_instrs = Array.of_list (List.map fst inds);
    ind_counts = Array.of_list (List.map snd inds);
    frames = [||];
    depth = 0;
  }

(* Resolution follows [Program.find_func]/[find_global]: the first
   definition of a name wins, and an intrinsic name shadows a function. *)
let decode st (p : Program.t) =
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
    Array.of_list (List.map (decode_func st ~globals ~func_index ~resolve ~nfuncs) p.Program.funcs)
  in
  st.code.funcs <- funcs;
  st.code.targets <- Array.map (fun df -> resolve df.func.Func.name) funcs;
  st.code.entry <- resolve p.Program.entry

(* The entry function's exit code: its first returned value when that is
   a non-NaT integer, else 0. *)
let run_entry st =
  let boot = Isa.new_bank ~ints:2 ~flts:0 ~prds:0 in
  seti boot sp_slot (Int64.sub Program.stack_top 128L);
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

(* Run the whole program; returns (exit code, output, final state). *)
let run ?(profile = false) ?(fuel = 400_000_000) (p : Program.t) (input : int64 array) =
  Program.assign_addresses p;
  let mem = Memimage.create () in
  Memimage.load_program mem p;
  let st =
    {
      program = p;
      mem;
      rt = { Intrinsics.heap = Program.heap_base; output = Buffer.create 256; input };
      fuel;
      executed = 0;
      nat_faults = 0;
      wild_loads = 0;
      alat_recoveries = 0;
      profiling = profile;
      code =
        {
          funcs = [||];
          targets = [||];
          entry = Undefined p.Program.entry;
          scratch = Bytes.create 24;
          arg_nats = Array.make 3 false;
        };
    }
  in
  decode st p;
  let code = try run_entry st with Intrinsics.Exit_program c -> c in
  st.executed <- fuel - st.fuel;
  Array.iter (fun df -> df.frames <- [||]) st.code.funcs;
  (code, Buffer.contents st.rt.Intrinsics.output, st)

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
