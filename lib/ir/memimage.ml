(* A sparse, paged, byte-addressed memory image shared by the high-level IR
   interpreter and (as the backing store) by the machine simulator.  Pages
   must be explicitly mapped; accesses to unmapped pages are reported to the
   caller so that speculative "wild loads" (Section 4.3 of the paper) can be
   modelled rather than silently absorbed.

   Host-performance notes (DESIGN.md §10): accesses that fit inside one
   page — the overwhelming majority, since the simulated ABI aligns scalars
   — are performed as single word-granularity [Bytes] reads/writes instead
   of per-byte loops, and page handles are cached in a small direct-mapped
   table (by the page index's low bits) so accesses that alternate among a
   few pages (stack traffic, array walks) skip the page-table hash
   entirely, in [classify] as well as in the access itself.  Pages are
   never unmapped and their [Bytes] handles never move, so the handle
   cache can never go stale. *)

let page_bits = 9
let page_size = 1 lsl page_bits (* 512 B; scaled from 16 kB (see DESIGN.md) *)

(* The page table, keyed by page index: integer hashing and equality
   rather than the polymorphic [Hashtbl.hash] and [compare]. *)
module Pages = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (i : int) = i land max_int
end)

let handles = 64

type pages = Bytes.t Pages.t

type t = {
  pages : pages;
  (* direct-mapped cache of page handles, by the low bits of the page
     index: [hidx] holds the index cached in each slot (-1 = empty) *)
  hidx : int array;
  hpage : Bytes.t array;
}

type access = Ok | Unmapped | Null_page

let create () =
  {
    pages = Pages.create 64;
    hidx = Array.make handles (-1);
    hpage = Array.make handles Bytes.empty;
  }

let page_of_addr (a : int64) = Int64.to_int (Int64.shift_right_logical a 9)

let map_page t idx =
  if not (Pages.mem t.pages idx) then Pages.add t.pages idx (Bytes.make page_size '\000')

let map_range t (addr : int64) (bytes : int) =
  let first = page_of_addr addr in
  let last = page_of_addr (Int64.add addr (Int64.of_int (max 0 (bytes - 1)))) in
  for i = first to last do
    map_page t i
  done

(* Classify an access without performing it.  The zero page is the
   architected NaT page: speculative accesses to it complete cheaply. *)
let classify t (a : int64) =
  if Int64.unsigned_compare a (Int64.of_int page_size) < 0 then Null_page
  else
    let idx = page_of_addr a in
    (* the cached handle is always a mapped page *)
    if t.hidx.(idx land (handles - 1)) = idx || Pages.mem t.pages idx then Ok
    else Unmapped

(* The mapped page [idx] through the handle cache; [Bytes.empty] when it
   is not mapped. *)
let[@inline] mapped_page t idx =
  let slot = idx land (handles - 1) in
  if Array.unsafe_get t.hidx slot = idx then Array.unsafe_get t.hpage slot
  else
    match Pages.find t.pages idx with
    | p ->
        t.hidx.(slot) <- idx;
        t.hpage.(slot) <- p;
        p
    | exception Not_found -> Bytes.empty

(* The page backing [idx], mapping it on demand (the policy decision of
   whether an unmapped access is legal lives above this layer). *)
let page t idx =
  let p = mapped_page t idx in
  if Bytes.length p > 0 then p
  else begin
    map_page t idx;
    mapped_page t idx
  end

(* Little-endian reads/writes of 1, 4 or 8 bytes.  The caller is responsible
   for having consulted [classify]; these map pages on demand so that the
   interpreter and simulator never crash on technically-unmapped accesses
   (the policy decision lives above this layer). *)

(* Slow path, byte by byte (the access straddles a page edge); a 4-byte
   read sign-extends. *)
let read_slow t (a : int64) (size : int) =
  let v = ref 0L in
  for i = 0 to size - 1 do
    let a = Int64.add a (Int64.of_int i) in
    let b = Bytes.get_uint8 (page t (page_of_addr a)) (Int64.to_int a land (page_size - 1)) in
    v := Int64.logor !v (Int64.shift_left (Int64.of_int b) (8 * i))
  done;
  if size = 4 then Int64.of_int32 (Int64.to_int32 !v) else !v

let write_slow t (a : int64) (size : int) (v : int64) =
  for i = 0 to size - 1 do
    let a = Int64.add a (Int64.of_int i) in
    Bytes.set_uint8
      (page t (page_of_addr a))
      (Int64.to_int a land (page_size - 1))
      (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
  done

(* The access at [a] through [p], the page holding its first byte: one
   word-granularity [Bytes] access when it fits in the page.  Inlined into
   every entry point below; [get] stores the value in [dst] at offset [o],
   so a caller that keeps values in a [Bytes] buffer allocates nothing on
   the in-page path. *)
let[@inline] get t p (a : int64) size dst o =
  let off = Int64.to_int a land (page_size - 1) in
  if off + size > page_size then Bytes.set_int64_ne dst o (read_slow t a size)
  else
    match size with
    | 8 -> Bytes.set_int64_ne dst o (Bytes.get_int64_le p off)
    | 4 -> Bytes.set_int64_ne dst o (Int64.of_int32 (Bytes.get_int32_le p off))
    | 1 -> Bytes.set_int64_ne dst o (Int64.of_int (Bytes.get_uint8 p off))
    | _ -> Bytes.set_int64_ne dst o (read_slow t a size)

let[@inline] set t p (a : int64) size v =
  let off = Int64.to_int a land (page_size - 1) in
  if off + size > page_size then write_slow t a size v
  else
    match size with
    | 8 -> Bytes.set_int64_le p off v
    | 4 -> Bytes.set_int32_le p off (Int64.to_int32 v) (* low 4 bytes *)
    | 1 -> Bytes.set_uint8 p off (Int64.to_int v land 0xff)
    | _ -> write_slow t a size v

(* [read] with the value stored into a [Bytes] buffer at byte offset [o]
   (native endianness) instead of a boxed [Int64], so an unboxed consumer
   allocates nothing. *)
let read_into t (a : int64) (size : int) (dst : Bytes.t) (o : int) =
  get t (page t (page_of_addr a)) a size dst o

let read t (a : int64) (size : int) =
  let b = Bytes.create 8 in
  read_into t a size b 0;
  Bytes.get_int64_ne b 0

let write t (a : int64) (size : int) (v : int64) = set t (page t (page_of_addr a)) a size v

(* Bank-offset access, for a caller whose addresses and values live in an
   unboxed register bank: the address is the native-endian word of [src] at
   byte offset [ao], and the value moves to or from [buf] at offset [o].
   The access is classified as by [classify] and performed only when [Ok];
   the classification is returned.  One page-handle probe serves both, and
   nothing is allocated on the in-page path. *)
let load_at t (src : Bytes.t) (ao : int) (size : int) (buf : Bytes.t) (o : int) =
  let a = Bytes.get_int64_ne src ao in
  let idx = Int64.to_int (Int64.shift_right_logical a page_bits) in
  if idx = 0 then Null_page
  else
    let p = mapped_page t idx in
    if Bytes.length p = 0 then Unmapped
    else begin
      get t p a size buf o;
      Ok
    end

let store_at t (src : Bytes.t) (ao : int) (size : int) (buf : Bytes.t) (o : int) =
  let a = Bytes.get_int64_ne src ao in
  let idx = Int64.to_int (Int64.shift_right_logical a page_bits) in
  if idx = 0 then Null_page
  else
    let p = mapped_page t idx in
    if Bytes.length p = 0 then Unmapped
    else begin
      set t p a size (Bytes.get_int64_ne buf o);
      Ok
    end

(* [blit t ~src ~dst n]: copy [n] bytes with the result of a forward
   byte-by-byte copy, a page-sized [Bytes.blit] at a time.  A destination
   [d] bytes above an overlapping source replicates its first [d] bytes,
   so the chunks are then at most [d] long: each reads only bytes that are
   final already, and none overlaps its own destination.  Every page
   touched is mapped on demand, the source's included. *)
let blit t ~(src : int64) ~(dst : int64) n =
  let d = Int64.sub dst src in
  let step =
    if Int64.compare d 0L > 0 && Int64.compare d (Int64.of_int n) < 0 then Int64.to_int d
    else page_size
  in
  let i = ref 0 in
  while !i < n do
    let s = Int64.add src (Int64.of_int !i) and a = Int64.add dst (Int64.of_int !i) in
    let so = Int64.to_int s land (page_size - 1) and o = Int64.to_int a land (page_size - 1) in
    let len = min (min (n - !i) step) (min (page_size - so) (page_size - o)) in
    let sp = page t (page_of_addr s) in
    Bytes.blit sp so (page t (page_of_addr a)) o len;
    i := !i + len
  done

(* [fill t dst n c]: set [n] bytes from [dst] to [c], a page at a time,
   mapping pages on demand. *)
let fill t (dst : int64) n c =
  let i = ref 0 in
  while !i < n do
    let a = Int64.add dst (Int64.of_int !i) in
    let o = Int64.to_int a land (page_size - 1) in
    let len = min (n - !i) (page_size - o) in
    Bytes.fill (page t (page_of_addr a)) o len c;
    i := !i + len
  done

(* Deep copy for checkpointing: every page's bytes are duplicated and the
   handle cache reset (it would otherwise alias the source). *)
let copy t =
  let pages = Pages.create (max 64 (Pages.length t.pages)) in
  Pages.iter (fun idx p -> Pages.add pages idx (Bytes.copy p)) t.pages;
  {
    pages;
    hidx = Array.make handles (-1);
    hpage = Array.make handles Bytes.empty;
  }

(* Initialize the image from a program's global data and map the stack and
   the NaT page.  Returns unit; addresses must already be assigned. *)
let load_program t (p : Program.t) =
  map_page t 0;
  (* architected NaT page *)
  List.iter
    (fun (g : Program.global) ->
      map_range t g.Program.address g.Program.size;
      match g.Program.init with
      | None -> ()
      | Some words ->
          Array.iteri
            (fun i w -> write t (Int64.add g.Program.address (Int64.of_int (8 * i))) 8 w)
            words)
    p.Program.globals;
  (* Map an initial stack region below [stack_top]. *)
  let stack_bytes = 64 * 1024 in
  map_range t (Int64.sub Program.stack_top (Int64.of_int stack_bytes)) stack_bytes
