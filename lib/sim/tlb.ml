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
  (* the LRU entry found by the scan of the last missed lookup, valid
     while [clock] is still [victim_at]: nothing changes an age without
     a lookup advancing the clock, except the fill that consumes it *)
  mutable victim : int;
  mutable victim_at : int; (* -1 = none *)
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
    victim = 0;
    victim_at = -1;
  }

let page_of (addr : int64) =
  Int64.to_int (Int64.shift_right_logical addr Epic_ir.Memimage.page_bits)

(* Lookup of page [page] without filling.  The hinted entry is checked
   first; otherwise one scan finds the page or, failing that, the LRU
   entry (the first of equally old ones, chosen branch-free as in
   [Cache.access_line]), kept for [fill_page]. *)
let lookup_page t page =
  t.accesses <- t.accesses + 1;
  let clock = t.clock + 1 in
  t.clock <- clock;
  let h = page land (hints - 1) in
  let e = t.hint.(h) in
  if e < t.entries && t.pages.(e) = page then begin
    t.age.(e) <- clock;
    true
  end
  else begin
    let pages = t.pages and age = t.age in
    let k = ref 0 and victim = ref 0 and oldest = ref max_int in
    while !k < t.entries && pages.(!k) <> page do
      let d = age.(!k) - !oldest in
      let m = d asr 62 in
      victim := !victim lxor ((!k lxor !victim) land m);
      oldest := !oldest + (d land m);
      incr k
    done;
    if !k < t.entries then begin
      t.hint.(h) <- !k;
      age.(!k) <- clock;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      t.victim <- !victim;
      t.victim_at <- clock;
      false
    end
  end

(* Install a translation of page [page] (absent, after a successful walk)
   in the least recently used entry, the first of equally old ones: the
   entry the missed lookup's scan found, or a scan of its own when a
   lookup or fill came in between. *)
let fill_page t page =
  let victim =
    if t.victim_at = t.clock then t.victim
    else begin
      let v = ref 0 in
      for k = 1 to t.entries - 1 do
        if t.age.(k) < t.age.(!v) then v := k
      done;
      !v
    end
  in
  t.victim_at <- -1;
  t.pages.(victim) <- page;
  t.age.(victim) <- t.clock;
  t.hint.(page land (hints - 1)) <- victim

let reset t =
  Array.fill t.pages 0 t.entries (-1);
  Array.fill t.age 0 t.entries 0;
  Array.fill t.hint 0 hints 0;
  t.clock <- 0;
  t.accesses <- 0;
  t.misses <- 0;
  t.victim_at <- -1

(* Deep copy for checkpointing. *)
let copy t =
  { t with pages = Array.copy t.pages; age = Array.copy t.age; hint = Array.copy t.hint }
