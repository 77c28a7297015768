(* Set-associative LRU cache model.

   Host-performance note (DESIGN.md §10): line numbers are kept as native
   ints.  A line number is the address shifted right *logically* by
   [line_bits] >= 2 (every real line is at least 4 bytes), so it is
   non-negative and below 2^62 — it always fits an OCaml int exactly, and
   the tag compare in the lookup loop is an unboxed integer compare
   instead of a boxed [Int64] one.

   So that a caller can decide an access without the set scan, a
   direct-mapped table of hints, by the line's low bits, names the way
   each line was last found or filled in, as the TLB's hints do.  A hint
   is only a guess, checked against [tags]: a line sits in at most one
   way, so a hinted way that holds it is the way the scan would find, and
   a stale hint costs the scan it would have saved, never a wrong answer.
   The last line accessed is always its slot's hint, so a repeat never
   scans. *)

type t = {
  name : string;
  sets : int;
  assoc : int;
  line_bits : int;
  sets_mask : int; (* sets - 1 when sets is a power of two, else -1 *)
  tags : int array; (* sets * assoc; -1 = invalid (lines are >= 0) *)
  age : int array; (* LRU stamps *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  hint : int array; (* line land (hints - 1) -> an index in [tags] to check first *)
}

let hints = 256

let log2i n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  go 0 1

let create ~name ~size ~line ~assoc =
  let sets = max 1 (size / (line * assoc)) in
  {
    name;
    sets;
    assoc;
    line_bits = log2i line;
    (* every real geometry has power-of-two sets, making the set index a
       mask; the [mod] path stays for hypothetical odd configurations *)
    sets_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    tags = Array.make (sets * assoc) (-1);
    age = Array.make (sets * assoc) 0;
    clock = 0;
    accesses = 0;
    misses = 0;
    hint = Array.make hints 0;
  }

let line_of t (addr : int64) =
  Int64.to_int (Int64.shift_right_logical addr t.line_bits)

(* The set index of a (non-negative) line number: a bitmask when the set
   count is a power of two (every level of itanium2 but its 12-way L3),
   [line mod sets] otherwise. *)
let[@inline] set_of_line t (line : int) =
  if t.sets_mask >= 0 then line land t.sets_mask else line mod t.sets

(* Access line [line]; returns true on hit.  Misses allocate.  One pass
   over the set finds the line or, failing that, the LRU way: the first of
   equally old ones, since only a strictly older way replaces the
   candidate.  That replacement is branch-free ([m] is -1 exactly when
   the way is older; ages are non-negative, so the difference cannot
   overflow): the ages' order is data, and a branch on it mispredicts
   (a 12-way scan ran ~35% faster without it).  The way found or filled
   becomes the line's hint. *)
let access_line t (line : int) =
  t.accesses <- t.accesses + 1;
  let clock = t.clock + 1 in
  t.clock <- clock;
  let base = set_of_line t line * t.assoc in
  let last = base + t.assoc in
  (* [base, last) is a set of [tags] and [age] by construction *)
  let tags = t.tags and age = t.age in
  let k = ref base and victim = ref base and oldest = ref max_int in
  while !k < last && Array.unsafe_get tags !k <> line do
    let d = Array.unsafe_get age !k - !oldest in
    let m = d asr 62 in
    victim := !victim lxor ((!k lxor !victim) land m);
    oldest := !oldest + (d land m);
    incr k
  done;
  let h = line land (hints - 1) in
  if !k < last then begin
    Array.unsafe_set age !k clock;
    Array.unsafe_set t.hint h !k;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    Array.unsafe_set tags !victim line;
    Array.unsafe_set age !victim clock;
    Array.unsafe_set t.hint h !victim;
    false
  end

(* Probe without allocating (used by tests). *)
let probe t (addr : int64) =
  let line = line_of t addr in
  let set = set_of_line t line in
  let base = set * t.assoc in
  let rec find k =
    if k >= t.assoc then false
    else t.tags.(base + k) = line || find (k + 1)
  in
  find 0

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.age 0 (Array.length t.age) 0;
  t.accesses <- 0;
  t.misses <- 0;
  t.clock <- 0;
  Array.fill t.hint 0 hints 0

(* Deep copy for checkpointing: same geometry, private tag/age/hint
   arrays. *)
let copy t =
  {
    t with
    tags = Array.copy t.tags;
    age = Array.copy t.age;
    hint = Array.copy t.hint;
  }

let miss_rate t =
  if t.accesses = 0 then 0. else float_of_int t.misses /. float_of_int t.accesses
