(* Fully-associative LRU data TLB (page size shared with Memimage).

   Host-performance note (DESIGN.md §10): page numbers are native ints —
   the address shifted right logically by [Memimage.page_bits] >= 2 always
   fits an OCaml int exactly — so the lookup loop compares unboxed
   integers instead of boxed [Int64]s.  A small direct-mapped table of
   hints, by the page's low bits, names the entry the page was last found
   or filled in, so a repeated lookup checks that entry before scanning.
   A hint is only a guess, checked against [pages]: a stale one costs the
   scan it would have saved, never a wrong answer. *)

type t = {
  entries : int;
  pages : int array; (* -1 = invalid (page numbers are >= 0) *)
  age : int array;
  hint : int array; (* page land (hints - 1) -> an entry to check first *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

let hints = 64

let create ?(entries = 32) () =
  {
    entries;
    pages = Array.make entries (-1);
    age = Array.make entries 0;
    hint = Array.make hints 0;
    clock = 0;
    accesses = 0;
    misses = 0;
  }

let page_of (addr : int64) =
  Int64.to_int (Int64.shift_right_logical addr Epic_ir.Memimage.page_bits)

(* The entry holding [page], or -1. *)
let find t page =
  let h = page land (hints - 1) in
  let e = t.hint.(h) in
  if e < t.entries && t.pages.(e) = page then e
  else begin
    let k = ref 0 in
    while !k < t.entries && t.pages.(!k) <> page do
      incr k
    done;
    if !k < t.entries then begin
      t.hint.(h) <- !k;
      !k
    end
    else -1
  end

(* Lookup without filling. *)
let lookup t (addr : int64) =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let e = find t (page_of addr) in
  if e >= 0 then begin
    t.age.(e) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    false
  end

(* Install a translation (after a successful walk) in the least recently
   used entry, the first of equally old ones. *)
let fill t (addr : int64) =
  let page = page_of addr in
  let victim = ref 0 in
  for k = 1 to t.entries - 1 do
    if t.age.(k) < t.age.(!victim) then victim := k
  done;
  t.pages.(!victim) <- page;
  t.age.(!victim) <- t.clock;
  t.hint.(page land (hints - 1)) <- !victim

let reset t =
  Array.fill t.pages 0 t.entries (-1);
  Array.fill t.age 0 t.entries 0;
  Array.fill t.hint 0 hints 0;
  t.clock <- 0;
  t.accesses <- 0;
  t.misses <- 0

(* Deep copy for checkpointing. *)
let copy t =
  { t with pages = Array.copy t.pages; age = Array.copy t.age; hint = Array.copy t.hint }
