(** Set-associative LRU cache model, used for L1I, L1D, and the unified
    L2/L3 levels of the scaled Itanium 2 hierarchy. *)

type t = {
  name : string;
  sets : int;
  assoc : int;
  line_bits : int;
  sets_mask : int;
      (** [sets - 1] when [sets] is a power of two (so the set index is a
          bitmask rather than a division), [-1] otherwise *)
  tags : int array;
      (** line numbers as native ints ([-1] = invalid): a line number is a
          logical shift of the address by at least 2 bits, so it is
          non-negative and always fits an OCaml int exactly *)
  age : int array;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  hint : int array;
      (** by a line's low bits ([line land (Array.length hint - 1)], the
          length a power of two), the index in [tags] of the way it was
          last found or filled in, recorded by {!access_line}; always an
          index in [tags].  A caller may decide an access itself: when
          [tags.(h) = line] for the hint [h], the line is in way [h], and
          the access is {!access_line}'s hit update there: [accesses + 1],
          [clock + 1], [age.(h) <- clock] ([Machine.cache_line] does,
          falling back to {!access_line}) *)
}

val create : name:string -> size:int -> line:int -> assoc:int -> t

(** [access_line t line] accesses line [line] ([line_of t addr] of an
    address); true on hit.  Misses allocate (evicting LRU, the first of
    equally old ways).  Records the way as the line's [hint].  One pass over the set
    finds the hit way or the victim. *)
val access_line : t -> int -> bool

(** Probe without allocating. *)
val probe : t -> int64 -> bool

val reset : t -> unit
val miss_rate : t -> float

(** Line number of an address (a logical shift by [line_bits]). *)
val line_of : t -> int64 -> int

(** Deep copy (private tag/age/hint arrays), for checkpointing. *)
val copy : t -> t
