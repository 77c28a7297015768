(** Fully-associative LRU data TLB (page size shared with
    [Epic_ir.Memimage]). *)

type t = {
  entries : int;
  pages : int array;
      (** page numbers as native ints ([-1] = invalid): a page number is a
          logical shift of the address by [Memimage.page_bits] >= 2 bits,
          so it always fits an OCaml int exactly *)
  age : int array;
  hint : int array;
      (** by a page's low bits ([page land (Array.length hint - 1)], the
          length a power of two), the entry it was last found or filled
          in: checked before scanning, verified against [pages].  That
          check is {!lookup_page}'s first step, which a caller may make itself
          ([Machine.tlb_page] does): on a verified hint [e], the lookup's
          update is [accesses + 1], [clock + 1], [age.(e) <- clock] *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  mutable victim : int;
      (** the least recently used entry, found by the scan of the last
          missed lookup: {!fill_page} takes it while [clock = victim_at]
          (no lookup since the miss) instead of scanning again *)
  mutable victim_at : int;  (** [-1] = none *)
}

val create : ?entries:int -> unit -> t
val page_of : int64 -> int

(** [lookup_page t page] looks up page [page] ([page_of addr] of an
    address) without filling; counts the access.  A miss's scan also finds
    the entry a fill would evict. *)
val lookup_page : t -> int -> bool

(** Install a translation of an absent page (after a successful walk) in
    the least recently used entry, the first of equally old ones. *)
val fill_page : t -> int -> unit

val reset : t -> unit

(** Deep copy (private arrays), for checkpointing. *)
val copy : t -> t
