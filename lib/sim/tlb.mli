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
          check is {!lookup}'s first step, which a caller may make itself
          ([Machine.tlb_lookup] does): on a verified hint [e], the lookup's
          update is [accesses + 1], [clock + 1], [age.(e) <- clock] *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

val create : ?entries:int -> unit -> t
val page_of : int64 -> int

(** Lookup without filling; counts the access. *)
val lookup : t -> int64 -> bool

(** Install a translation (after a successful walk) in the least recently
    used entry, the first of equally old ones. *)
val fill : t -> int64 -> unit

val reset : t -> unit

(** Deep copy (private arrays), for checkpointing. *)
val copy : t -> t
