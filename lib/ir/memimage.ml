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

type t = {
  pages : Bytes.t Pages.t;
  mutable mapped_count : int;
  (* direct-mapped cache of page handles, by the low bits of the page
     index: [hidx] holds the index cached in each slot (-1 = empty) *)
  hidx : int array;
  hpage : Bytes.t array;
}

type access = Ok | Unmapped | Null_page

let create () =
  {
    pages = Pages.create 64;
    mapped_count = 0;
    hidx = Array.make handles (-1);
    hpage = Array.make handles Bytes.empty;
  }

let page_of_addr (a : int64) = Int64.to_int (Int64.shift_right_logical a 9)

let map_page t idx =
  if not (Pages.mem t.pages idx) then begin
    Pages.add t.pages idx (Bytes.make page_size '\000');
    t.mapped_count <- t.mapped_count + 1
  end

let map_range t (addr : int64) (bytes : int) =
  let first = page_of_addr addr in
  let last = page_of_addr (Int64.add addr (Int64.of_int (max 0 (bytes - 1)))) in
  for i = first to last do
    map_page t i
  done

let is_mapped t (a : int64) = Pages.mem t.pages (page_of_addr a)

(* Classify an access without performing it.  The zero page is the
   architected NaT page: speculative accesses to it complete cheaply. *)
let classify t (a : int64) =
  if Int64.unsigned_compare a (Int64.of_int page_size) < 0 then Null_page
  else
    let idx = page_of_addr a in
    (* the cached handle is always a mapped page *)
    if t.hidx.(idx land (handles - 1)) = idx || Pages.mem t.pages idx then Ok
    else Unmapped

(* The page backing [idx], mapping it on demand (the policy decision of
   whether an unmapped access is legal lives above this layer). *)
let page t idx =
  let slot = idx land (handles - 1) in
  if Array.unsafe_get t.hidx slot = idx then Array.unsafe_get t.hpage slot
  else
    let p =
      match Pages.find t.pages idx with
      | p -> p
      | exception Not_found ->
          map_page t idx;
          Pages.find t.pages idx
    in
    t.hidx.(slot) <- idx;
    t.hpage.(slot) <- p;
    p

let read_byte t (a : int64) =
  Char.code
    (Bytes.get (page t (page_of_addr a)) (Int64.to_int a land (page_size - 1)))

let write_byte t (a : int64) (v : int) =
  Bytes.set
    (page t (page_of_addr a))
    (Int64.to_int a land (page_size - 1))
    (Char.chr (v land 0xff))

(* Little-endian reads/writes of 1, 4 or 8 bytes.  The caller is responsible
   for having consulted [classify]; these map pages on demand so that the
   interpreter and simulator never crash on technically-unmapped accesses
   (the policy decision lives above this layer). *)

(* Slow path: assemble byte-by-byte (the access straddles a page edge). *)
let read_slow t (a : int64) (size : int) =
  let rec go i acc =
    if i >= size then acc
    else
      let b = read_byte t (Int64.add a (Int64.of_int i)) in
      go (i + 1) (Int64.logor acc (Int64.shift_left (Int64.of_int b) (8 * i)))
  in
  let raw = go 0 0L in
  match size with
  | 1 -> raw
  | 4 ->
      (* sign-extend 32-bit quantities *)
      Int64.shift_right (Int64.shift_left raw 32) 32
  | _ -> raw

let read t (a : int64) (size : int) =
  let off = Int64.to_int a land (page_size - 1) in
  if off + size <= page_size then
    let p = page t (page_of_addr a) in
    match size with
    | 8 -> Bytes.get_int64_le p off
    | 4 -> Int64.of_int32 (Bytes.get_int32_le p off) (* sign-extends *)
    | 1 -> Int64.of_int (Bytes.get_uint8 p off)
    | _ -> read_slow t a size
  else read_slow t a size

let write_slow t (a : int64) (size : int) (v : int64) =
  for i = 0 to size - 1 do
    write_byte t
      (Int64.add a (Int64.of_int i))
      (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL))
  done

let write t (a : int64) (size : int) (v : int64) =
  let off = Int64.to_int a land (page_size - 1) in
  if off + size <= page_size then
    let p = page t (page_of_addr a) in
    match size with
    | 8 -> Bytes.set_int64_le p off v
    | 4 -> Bytes.set_int32_le p off (Int64.to_int32 v) (* low 4 bytes *)
    | 1 -> Bytes.set_uint8 p off (Int64.to_int v land 0xff)
    | _ -> write_slow t a size v
  else write_slow t a size v

(* [read] and [write] with the value in a [Bytes] buffer at byte offset
   [o] (native endianness) instead of a boxed [Int64], so an unboxed
   producer or consumer allocates nothing. *)
let read_into t (a : int64) (size : int) (dst : Bytes.t) (o : int) =
  let off = Int64.to_int a land (page_size - 1) in
  if off + size <= page_size then
    let p = page t (page_of_addr a) in
    match size with
    | 8 -> Bytes.set_int64_ne dst o (Bytes.get_int64_le p off)
    | 4 -> Bytes.set_int64_ne dst o (Int64.of_int32 (Bytes.get_int32_le p off))
    | 1 -> Bytes.set_int64_ne dst o (Int64.of_int (Bytes.get_uint8 p off))
    | _ -> Bytes.set_int64_ne dst o (read_slow t a size)
  else Bytes.set_int64_ne dst o (read_slow t a size)

let write_from t (a : int64) (size : int) (src : Bytes.t) (o : int) =
  let v = Bytes.get_int64_ne src o in
  let off = Int64.to_int a land (page_size - 1) in
  if off + size <= page_size then
    let p = page t (page_of_addr a) in
    match size with
    | 8 -> Bytes.set_int64_le p off v
    | 4 -> Bytes.set_int32_le p off (Int64.to_int32 v)
    | 1 -> Bytes.set_uint8 p off (Int64.to_int v land 0xff)
    | _ -> write_slow t a size v
  else write_slow t a size v

(* Bank-offset access, for a caller whose addresses and values live in an
   unboxed register bank: the address is the native-endian word of [src] at
   byte offset [ao], and the value moves to or from [buf] at offset [o].
   The access is classified as by [classify] and performed only when [Ok];
   the classification is returned.  One page-handle probe serves both, and
   nothing is allocated on the in-page path. *)
let mapped_page t idx =
  let slot = idx land (handles - 1) in
  if Array.unsafe_get t.hidx slot = idx then Array.unsafe_get t.hpage slot
  else
    match Pages.find t.pages idx with
    | p ->
        t.hidx.(slot) <- idx;
        t.hpage.(slot) <- p;
        p
    | exception Not_found -> Bytes.empty

let load_at t (src : Bytes.t) (ao : int) (size : int) (buf : Bytes.t) (o : int) =
  let a = Bytes.get_int64_ne src ao in
  let idx = Int64.to_int (Int64.shift_right_logical a page_bits) in
  if idx = 0 then Null_page
  else
    let p = mapped_page t idx in
    if Bytes.length p = 0 then Unmapped
    else begin
      let off = Int64.to_int a land (page_size - 1) in
      (if off + size <= page_size then
         match size with
         | 8 -> Bytes.set_int64_ne buf o (Bytes.get_int64_le p off)
         | 4 -> Bytes.set_int64_ne buf o (Int64.of_int32 (Bytes.get_int32_le p off))
         | 1 -> Bytes.set_int64_ne buf o (Int64.of_int (Bytes.get_uint8 p off))
         | _ -> Bytes.set_int64_ne buf o (read_slow t a size)
       else Bytes.set_int64_ne buf o (read_slow t a size));
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
      let v = Bytes.get_int64_ne buf o in
      let off = Int64.to_int a land (page_size - 1) in
      (if off + size <= page_size then
         match size with
         | 8 -> Bytes.set_int64_le p off v
         | 4 -> Bytes.set_int32_le p off (Int64.to_int32 v)
         | 1 -> Bytes.set_uint8 p off (Int64.to_int v land 0xff)
         | _ -> write_slow t a size v
       else write_slow t a size v);
      Ok
    end

(* Deep copy for checkpointing: every page's bytes are duplicated and the
   handle cache reset (it would otherwise alias the source). *)
let copy t =
  let pages = Pages.create (max 64 (Pages.length t.pages)) in
  Pages.iter (fun idx p -> Pages.add pages idx (Bytes.copy p)) t.pages;
  {
    pages;
    mapped_count = t.mapped_count;
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
