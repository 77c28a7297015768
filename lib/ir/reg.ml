(* Registers of the Lcode-like low-level IR.

   Before register allocation, registers are virtual (unbounded ids).  After
   allocation they are physical and follow IA-64 conventions: integer
   registers r0-r127 (r0 hardwired to zero, r12 the stack pointer, r32 and up
   the register stack), predicate registers p0-p63 (p0 hardwired true),
   floating-point registers f0-f127 and branch registers b0-b7. *)

type cls =
  | Int (* general-purpose integer, carries a NaT bit *)
  | Flt (* floating point *)
  | Prd (* one-bit predicate *)
  | Brr (* branch register *)

type t = { id : int; cls : cls; phys : bool }

(* Class then virtual/physical then id, as the polymorphic compare of the
   fields ordered them (Int < Flt < Prd < Brr, virtual < physical): register
   allocation and scheduling consume [Set]/[Map] iteration order, so the
   order is pinned.  Integer ranks keep it off the polymorphic path. *)
let cls_rank = function Int -> 0 | Flt -> 1 | Prd -> 2 | Brr -> 3

let compare a b =
  let ra = (cls_rank a.cls lsl 1) lor Bool.to_int a.phys
  and rb = (cls_rank b.cls lsl 1) lor Bool.to_int b.phys in
  if ra <> rb then Int.compare ra rb else Int.compare a.id b.id

let equal a b = a.id = b.id && a.cls == b.cls && a.phys = b.phys

(* A record hashes like the tuple of its fields, so this is the value
   [Hashtbl.hash (r.id, r.cls, r.phys)] without building the tuple. *)
let hash (r : t) = Hashtbl.hash r
let virt id cls = { id; cls; phys = false }
let phys id cls = { id; cls; phys = true }

(* Distinguished physical registers. *)
let r0 = phys 0 Int (* always zero *)
let sp = phys 12 Int (* memory stack pointer *)
let p0 = phys 0 Prd (* always-true predicate *)
let ret0 = phys 8 Int (* first integer return register *)

(* Physical register file geometry (IA-64). *)
let num_int = 128
let num_flt = 128
let num_prd = 64
let first_stacked = 32 (* r32 is the first register-stack register *)
let num_stacked_physical = 96 (* r32-r127 back the register stack *)

let is_stacked r = r.cls = Int && r.phys && r.id >= first_stacked

let cls_letter = function Int -> 'r' | Flt -> 'f' | Prd -> 'p' | Brr -> 'b'

let pp ppf r =
  if r.phys then Fmt.pf ppf "%c%d" (cls_letter r.cls) r.id
  else Fmt.pf ppf "v%c%d" (cls_letter r.cls) r.id

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
