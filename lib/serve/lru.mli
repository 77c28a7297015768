(** A bounded least-recently-used map: hash table plus intrusive doubly
    linked recency list, both O(1) per operation.  The building block of
    each kind in {!Session}'s artifact store.

    Not thread-safe on its own — {!Session} serializes access under its
    lock.  [find] counts as a use (moves the entry to the
    most-recently-used end). *)

type ('k, 'v) t

(** [create ~capacity] is an empty cache holding at most [capacity]
    entries.  @raise Invalid_argument if [capacity < 1]. *)
val create : capacity:int -> ('k, 'v) t

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

(** Entries evicted by {!add} since {!create}. *)
val evictions : ('k, 'v) t -> int

(** Look up and touch: the entry becomes most recently used. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** Insert (or replace) at the most-recently-used end.  When the insert
    pushes the cache past capacity the least-recently-used entry is
    evicted and returned. *)
val add : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) option

(** Keys from most to least recently used (test/debug aid; O(n)). *)
val keys_mru_first : ('k, 'v) t -> 'k list
