(* The architectural rules of the modelled IA-64 subset that both engines
   apply — the reference interpreter and the machine simulator — kept in
   one place so a rule fixed here is fixed in both: the register bank, the
   integer and float ALU, the zero-divisor rule, the compare relations and
   the compare-target rule, memory-access faults, speculation-check
   recovery and the ALAT.

   The ALU and compare rules are decoded, not interpreted: each builder
   below matches an instruction's opcode, relation and operand shape once
   and returns a closure over the bank.  The rule itself is written once,
   as an inlined function of the opcode; every specialised closure calls
   it with a constant opcode, which the compiler folds away. *)

exception Fault of string
exception Out_of_fuel

let malformed i = "malformed instruction: " ^ Instr.to_string i

let access_fault (spec : Opcode.spec_kind) (acc : Memimage.access) addr =
  match (acc, spec) with
  | Memimage.Ok, _ | _, (Opcode.Spec_general | Opcode.Spec_sentinel) -> None
  | Memimage.Null_page, _ -> Some (Printf.sprintf "NULL page access 0x%Lx" addr)
  | Memimage.Unmapped, _ -> Some (Printf.sprintf "unmapped access 0x%Lx" addr)

type recovery = Reloaded | Nat_address | Recovery_fault of string

let recover mem ~nat addr ~size buf o =
  if nat then Nat_address
  else
    match access_fault Opcode.Nonspec (Memimage.classify mem addr) addr with
    | Some m -> Recovery_fault m
    | None ->
        Memimage.read_into mem addr size buf o;
        Reloaded

module Alat = struct
  (* Entry [i] of [count] is [e.(3i)], the register key, and the bytes
     [e.(3i+1)] to [e.(3i+2)] (exclusive) of its load.  Entries are
     unordered: a removal moves the last one into the gap. *)
  type t = { mutable count : int; mutable e : int array }

  let create () = { count = 0; e = Array.make 24 0 }

  let key (cls : Reg.cls) reg =
    (3 * reg) + match cls with Reg.Int | Reg.Brr -> 0 | Reg.Flt -> 1 | Reg.Prd -> 2

  let rec find t key i =
    if i >= t.count then -1 else if t.e.(3 * i) = key then i else find t key (i + 1)

  let mem t key = find t key 0 >= 0

  let insert t key addr size =
    let i = find t key 0 in
    let i =
      if i >= 0 then i
      else begin
        if 3 * t.count = Array.length t.e then t.e <- Array.append t.e t.e;
        t.count <- t.count + 1;
        t.count - 1
      end
    in
    t.e.(3 * i) <- key;
    t.e.((3 * i) + 1) <- addr;
    t.e.((3 * i) + 2) <- addr + size

  let snoop t addr size =
    let i = ref 0 in
    while !i < t.count do
      let j = 3 * !i in
      if max t.e.(j + 1) addr < min t.e.(j + 2) (addr + size) then begin
        t.count <- t.count - 1;
        Array.blit t.e (3 * t.count) t.e j 3
      end
      else incr i
    done

  let flush t = t.count <- 0
  let copy t = { t with e = Array.copy t.e }
end

(* --- the register bank ------------------------------------------------------ *)

type bank = {
  ints : Bytes.t;
  inat : bool array;
  flts : float array;
  fnat : bool array;
  prds : bool array;
  mutable alat : Alat.t;
}

type op = bank -> unit
type opnd = Int of int | Flt of int | Prd of int | Imm of int64 | Fimm of float
type dst = Dint of int | Dflt of int | Dprd of int
type guard = Always | If of int | If_opnd of opnd

let new_bank ~ints ~flts ~prds =
  {
    ints = Bytes.make (8 * ints) '\000';
    inat = Array.make ints false;
    flts = Array.make flts 0.;
    fnat = Array.make flts false;
    prds = Array.make prds false;
    alat = Alat.create ();
  }

let copy_bank b =
  {
    ints = Bytes.copy b.ints;
    inat = Array.copy b.inat;
    flts = Array.copy b.flts;
    fnat = Array.copy b.fnat;
    prds = Array.copy b.prds;
    alat = Alat.copy b.alat;
  }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Slot accessors: every slot an op is built for lies inside the banks it
   runs on, which is what makes the unchecked accesses safe. *)
let[@inline] nat bk k = Array.unsafe_get bk.inat k
let[@inline] nat2 bk a b = Array.unsafe_get bk.inat a || Array.unsafe_get bk.inat b
let[@inline] geti bk k = get64 bk.ints (k lsl 3)

let[@inline] seti bk k x =
  set64 bk.ints (k lsl 3) x;
  Array.unsafe_set bk.inat k false

(* A deferred integer result: NaT, and 0 underneath. *)
let[@inline] defer bk k =
  set64 bk.ints (k lsl 3) 0L;
  Array.unsafe_set bk.inat k true

(* Operand reads.  A value of one class read in another converts as a
   register write of that class would; [int_of]/[flt_of] do not look at
   the NaT bit. *)
let[@inline] is_nat bk = function
  | Int k -> bk.inat.(k)
  | Flt k -> bk.fnat.(k)
  | Prd _ | Imm _ | Fimm _ -> false

let[@inline] int_of bk = function
  | Int k -> get64 bk.ints (k lsl 3)
  | Flt k -> Int64.of_float bk.flts.(k)
  | Prd k -> if bk.prds.(k) then 1L else 0L
  | Imm i -> Int64.add i 0L
  | Fimm f -> Int64.of_float f

let[@inline] flt_of bk = function
  | Int k -> Int64.to_float (get64 bk.ints (k lsl 3))
  | Flt k -> bk.flts.(k)
  | Prd k -> if bk.prds.(k) then 1. else 0.
  | Imm i -> Int64.to_float i
  | Fimm f -> Int64.float_of_bits (Int64.bits_of_float f)

let pred_of bk = function
  | Int k -> (not bk.inat.(k)) && not (Int64.equal (get64 bk.ints (k lsl 3)) 0L)
  | Prd k -> bk.prds.(k)
  | Imm i -> not (Int64.equal i 0L)
  | Flt _ | Fimm _ -> false

(* Writes coerce to the destination's class. *)
let[@inline] write_int bk d x =
  match d with
  | Dint k -> seti bk k x
  | Dflt k ->
      bk.flts.(k) <- Int64.to_float x;
      bk.fnat.(k) <- false
  | Dprd k -> bk.prds.(k) <- not (Int64.equal x 0L)

let write_nat bk = function
  | Dint k -> defer bk k
  | Dflt k -> bk.fnat.(k) <- true
  | Dprd k -> bk.prds.(k) <- false

(* A float result and its NaT bit; the value is written under a NaT too. *)
let[@inline] write_flt bk d f n =
  match d with
  | Dflt k ->
      bk.flts.(k) <- f;
      bk.fnat.(k) <- n
  | Dint k -> if n then defer bk k else seti bk k (Int64.of_float f)
  | Dprd k -> bk.prds.(k) <- false

(* [body] under guard [g]: a false guard squashes it. *)
let guarded g (body : op) : op =
  match g with
  | Always -> body
  | If p -> fun bk -> if Array.unsafe_get bk.prds p then body bk
  | If_opnd o -> fun bk -> if pred_of bk o then body bk

(* --- the ALU ------------------------------------------------------------------ *)

(* The integer ALU: [x op y], for a divisor that is not zero.  Shift counts
   are taken mod 64. *)
let[@inline] ialu (op : Opcode.t) (x : int64) (y : int64) =
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
  | _ -> Int64.shift_right x (Int64.to_int y land 63)

let[@inline] fpu (op : Opcode.t) (x : float) y =
  match op with
  | Opcode.Fadd -> x +. y
  | Opcode.Fsub -> x -. y
  | Opcode.Fmul -> x *. y
  | _ -> x /. y

(* Div/Rem by zero: a speculated instruction defers (its destination
   becomes NaT), any other faults. *)
let zero_divisor (op : Opcode.t) ~spec bk d =
  if spec then write_nat bk d
  else raise (Fault (if op = Opcode.Div then "division by zero" else "remainder by zero"))

let divides (op : Opcode.t) = op = Opcode.Div || op = Opcode.Rem

(* [d := a op b] on integer slots, NaT if either source is. *)
let alu_rr (op : Opcode.t) ~spec d a b : op =
  match op with
  | Opcode.Add ->
      fun bk ->
        if nat2 bk a b then defer bk d else seti bk d (ialu Opcode.Add (geti bk a) (geti bk b))
  | Opcode.Sub ->
      fun bk ->
        if nat2 bk a b then defer bk d else seti bk d (ialu Opcode.Sub (geti bk a) (geti bk b))
  | Opcode.Mul ->
      fun bk ->
        if nat2 bk a b then defer bk d else seti bk d (ialu Opcode.Mul (geti bk a) (geti bk b))
  | Opcode.And ->
      fun bk ->
        if nat2 bk a b then defer bk d else seti bk d (ialu Opcode.And (geti bk a) (geti bk b))
  | Opcode.Or ->
      fun bk ->
        if nat2 bk a b then defer bk d else seti bk d (ialu Opcode.Or (geti bk a) (geti bk b))
  | Opcode.Xor ->
      fun bk ->
        if nat2 bk a b then defer bk d else seti bk d (ialu Opcode.Xor (geti bk a) (geti bk b))
  | Opcode.Shl ->
      fun bk ->
        if nat2 bk a b then defer bk d else seti bk d (ialu Opcode.Shl (geti bk a) (geti bk b))
  | Opcode.Shr ->
      fun bk ->
        if nat2 bk a b then defer bk d else seti bk d (ialu Opcode.Shr (geti bk a) (geti bk b))
  | Opcode.Sra ->
      fun bk ->
        if nat2 bk a b then defer bk d else seti bk d (ialu Opcode.Sra (geti bk a) (geti bk b))
  | _ ->
      fun bk ->
        if nat2 bk a b then defer bk d
        else
          let y = geti bk b in
          if Int64.equal y 0L then zero_divisor op ~spec bk (Dint d)
          else seti bk d (ialu op (geti bk a) y)

(* [d := a op y] for an immediate [y]. *)
let alu_ri (op : Opcode.t) ~spec d a y : op =
  match op with
  | Opcode.Add ->
      fun bk -> if nat bk a then defer bk d else seti bk d (ialu Opcode.Add (geti bk a) y)
  | Opcode.Sub ->
      fun bk -> if nat bk a then defer bk d else seti bk d (ialu Opcode.Sub (geti bk a) y)
  | Opcode.Mul ->
      fun bk -> if nat bk a then defer bk d else seti bk d (ialu Opcode.Mul (geti bk a) y)
  | Opcode.And ->
      fun bk -> if nat bk a then defer bk d else seti bk d (ialu Opcode.And (geti bk a) y)
  | Opcode.Or ->
      fun bk -> if nat bk a then defer bk d else seti bk d (ialu Opcode.Or (geti bk a) y)
  | Opcode.Xor ->
      fun bk -> if nat bk a then defer bk d else seti bk d (ialu Opcode.Xor (geti bk a) y)
  | Opcode.Shl ->
      fun bk -> if nat bk a then defer bk d else seti bk d (ialu Opcode.Shl (geti bk a) y)
  | Opcode.Shr ->
      fun bk -> if nat bk a then defer bk d else seti bk d (ialu Opcode.Shr (geti bk a) y)
  | Opcode.Sra ->
      fun bk -> if nat bk a then defer bk d else seti bk d (ialu Opcode.Sra (geti bk a) y)
  | _ when Int64.equal y 0L ->
      fun bk -> if nat bk a then defer bk d else zero_divisor op ~spec bk (Dint d)
  | _ -> fun bk -> if nat bk a then defer bk d else seti bk d (ialu op (geti bk a) y)

(* Any other operand shape. *)
let alu_any (op : Opcode.t) ~spec d a b : op =
  let div = divides op in
  fun bk ->
    if is_nat bk a || is_nat bk b then write_nat bk d
    else
      let y = int_of bk b in
      if div && Int64.equal y 0L then zero_divisor op ~spec bk d
      else write_int bk d (ialu op (int_of bk a) y)

let alu (op : Opcode.t) ~spec d a b : op =
  let op = if op = Opcode.Lea then Opcode.Add else op in
  match (d, a, b) with
  | Dint d, Int a, Int b -> alu_rr op ~spec d a b
  | Dint d, Int a, Imm y -> alu_ri op ~spec d a y
  | Dint d, Imm x, Imm y when not (divides op && Int64.equal y 0L) ->
      let v = ialu op x y in
      fun bk -> seti bk d v
  | d, a, b -> alu_any op ~spec d a b

let falu (op : Opcode.t) d a b : op =
 fun bk -> write_flt bk d (fpu op (flt_of bk a) (flt_of bk b)) (is_nat bk a || is_nat bk b)

(* --- compares ------------------------------------------------------------------- *)

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

(* The compare-target rule, on predicate slots [pt] and [pf].  Under a true
   guard, norm and unc write (holds, not holds), or clear both on a NaT
   input; or-form sets both when the relation holds on clean inputs and
   leaves them otherwise.  Under a false guard only unc writes: it clears
   both. *)
let[@inline] targets bk (ct : Opcode.ctype) pt pf ~nat ~holds =
  match ct with
  | Opcode.Norm | Opcode.Unc ->
      Array.unsafe_set bk.prds pt ((not nat) && holds);
      Array.unsafe_set bk.prds pf ((not nat) && not holds)
  | Opcode.Orform ->
      if (not nat) && holds then begin
        Array.unsafe_set bk.prds pt true;
        Array.unsafe_set bk.prds pf true
      end

let clear bk pt pf =
  Array.unsafe_set bk.prds pt false;
  Array.unsafe_set bk.prds pf false

(* Integer norm/unc compares of two slots, or of a slot and an
   immediate. *)
let icmp_rr (c : Opcode.icmp) pt pf a b : op =
  match c with
  | Opcode.Eq ->
      fun bk ->
        targets bk Opcode.Norm pt pf ~nat:(nat2 bk a b)
          ~holds:(icmp Opcode.Eq (geti bk a) (geti bk b))
  | Opcode.Ne ->
      fun bk ->
        targets bk Opcode.Norm pt pf ~nat:(nat2 bk a b)
          ~holds:(icmp Opcode.Ne (geti bk a) (geti bk b))
  | Opcode.Lt ->
      fun bk ->
        targets bk Opcode.Norm pt pf ~nat:(nat2 bk a b)
          ~holds:(icmp Opcode.Lt (geti bk a) (geti bk b))
  | Opcode.Le ->
      fun bk ->
        targets bk Opcode.Norm pt pf ~nat:(nat2 bk a b)
          ~holds:(icmp Opcode.Le (geti bk a) (geti bk b))
  | Opcode.Gt ->
      fun bk ->
        targets bk Opcode.Norm pt pf ~nat:(nat2 bk a b)
          ~holds:(icmp Opcode.Gt (geti bk a) (geti bk b))
  | Opcode.Ge ->
      fun bk ->
        targets bk Opcode.Norm pt pf ~nat:(nat2 bk a b)
          ~holds:(icmp Opcode.Ge (geti bk a) (geti bk b))
  | Opcode.Ltu ->
      fun bk ->
        targets bk Opcode.Norm pt pf ~nat:(nat2 bk a b)
          ~holds:(icmp Opcode.Ltu (geti bk a) (geti bk b))
  | Opcode.Geu ->
      fun bk ->
        targets bk Opcode.Norm pt pf ~nat:(nat2 bk a b)
          ~holds:(icmp Opcode.Geu (geti bk a) (geti bk b))

let icmp_ri (c : Opcode.icmp) pt pf a y : op =
  match c with
  | Opcode.Eq ->
      fun bk -> targets bk Opcode.Norm pt pf ~nat:(nat bk a) ~holds:(icmp Opcode.Eq (geti bk a) y)
  | Opcode.Ne ->
      fun bk -> targets bk Opcode.Norm pt pf ~nat:(nat bk a) ~holds:(icmp Opcode.Ne (geti bk a) y)
  | Opcode.Lt ->
      fun bk -> targets bk Opcode.Norm pt pf ~nat:(nat bk a) ~holds:(icmp Opcode.Lt (geti bk a) y)
  | Opcode.Le ->
      fun bk -> targets bk Opcode.Norm pt pf ~nat:(nat bk a) ~holds:(icmp Opcode.Le (geti bk a) y)
  | Opcode.Gt ->
      fun bk -> targets bk Opcode.Norm pt pf ~nat:(nat bk a) ~holds:(icmp Opcode.Gt (geti bk a) y)
  | Opcode.Ge ->
      fun bk -> targets bk Opcode.Norm pt pf ~nat:(nat bk a) ~holds:(icmp Opcode.Ge (geti bk a) y)
  | Opcode.Ltu ->
      fun bk -> targets bk Opcode.Norm pt pf ~nat:(nat bk a) ~holds:(icmp Opcode.Ltu (geti bk a) y)
  | Opcode.Geu ->
      fun bk -> targets bk Opcode.Norm pt pf ~nat:(nat bk a) ~holds:(icmp Opcode.Geu (geti bk a) y)

let cmp (op : Opcode.t) g pt pf a b : op =
  let body : op =
    match (op, a, b) with
    | Opcode.Cmp (c, (Opcode.Norm | Opcode.Unc)), Int a, Int b -> icmp_rr c pt pf a b
    | Opcode.Cmp (c, (Opcode.Norm | Opcode.Unc)), Int a, Imm y -> icmp_ri c pt pf a y
    | Opcode.Cmp (c, ct), a, b ->
        fun bk ->
          targets bk ct pt pf ~nat:(is_nat bk a || is_nat bk b)
            ~holds:(icmp c (int_of bk a) (int_of bk b))
    | Opcode.Fcmp (c, ct), a, b ->
        fun bk ->
          targets bk ct pt pf ~nat:(is_nat bk a || is_nat bk b)
            ~holds:(fcmp c (flt_of bk a) (flt_of bk b))
    | _ -> invalid_arg "Isa.cmp"
  in
  match (op, g) with
  | (Opcode.Cmp (_, Opcode.Unc) | Opcode.Fcmp (_, Opcode.Unc)), If p ->
      fun bk -> if Array.unsafe_get bk.prds p then body bk else clear bk pt pf
  | (Opcode.Cmp (_, Opcode.Unc) | Opcode.Fcmp (_, Opcode.Unc)), If_opnd o ->
      fun bk -> if pred_of bk o then body bk else clear bk pt pf
  | _ -> guarded g body
