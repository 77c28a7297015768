(** A sparse, paged, byte-addressed memory image shared by the reference
    interpreter and the machine simulator.  Pages must be mapped explicitly;
    the classification of unmapped accesses is what lets callers model
    speculative "wild loads" (paper Section 4.3). *)

val page_bits : int

val page_size : int
(** 512 bytes — scaled with the caches, see DESIGN.md. *)

type pages
(** The page table. *)

(** The image.  Its handle cache is readable, for a caller that decides the
    common access inline ([Interp]'s loads and stores do): slot [s] holds
    page index [hidx.(s)] (-1 when empty) whose bytes are [hpage.(s)], and
    a page with index [i] can only sit in slot [i land (Array.length hidx -
    1)].  A slot only ever holds a mapped page, and a mapped page's bytes
    never move, so a slot is never stale.  Page 0, the NaT page, may sit in
    slot 0: an inline reader must exclude it as {!classify} does. *)
type t = private {
  pages : pages;
  hidx : int array;
  hpage : Bytes.t array;
}

type access =
  | Ok  (** the page is mapped *)
  | Unmapped
  | Null_page  (** the architected NaT page at address 0 *)

val create : unit -> t
val map_range : t -> int64 -> int -> unit

(** Classify an access without performing it. *)
val classify : t -> int64 -> access

(** Little-endian read of 1, 4 or 8 bytes (4-byte reads sign-extend).
    Maps pages on demand: consult {!classify} first for policy. *)
val read : t -> int64 -> int -> int64

val write : t -> int64 -> int -> int64 -> unit

(** [read_into t a size dst o]: {!read}, storing the value into [dst] at
    byte offset [o] in native endianness (no allocation). *)
val read_into : t -> int64 -> int -> Bytes.t -> int -> unit

(** [load_at t src ao size buf o]: the load of [size] bytes from the
    address held (native-endian) in [src] at byte offset [ao], into [buf] at
    byte offset [o] — performed only when the access classifies as [Ok]
    ({!classify}); returns the classification.  Allocates nothing on the
    in-page path, so a caller keeping addresses in an unboxed register bank
    stays unboxed.  The machine's loads take this path, one call that
    probes the page-handle cache and reads. *)
val load_at : t -> Bytes.t -> int -> int -> Bytes.t -> int -> access

(** [store_at t src ao size buf o]: the store of the value held in [buf] at
    byte offset [o] to the address held in [src] at [ao], performed only
    when it classifies as [Ok]; returns the classification.  The machine's
    stores take this path. *)
val store_at : t -> Bytes.t -> int -> int -> Bytes.t -> int -> access

(** [blit t ~src ~dst n]: copy [n] bytes from [src] to [dst] as a forward
    byte-by-byte copy would — a destination overlapping the source from
    above replicates it — mapping every page touched, source and
    destination, on demand.  Nothing happens when [n <= 0]. *)
val blit : t -> src:int64 -> dst:int64 -> int -> unit

(** [fill t dst n c]: set [n] bytes from [dst] to [c], mapping pages on
    demand; nothing when [n <= 0]. *)
val fill : t -> int64 -> int -> char -> unit

(** Initialize the image from a program's globals and map the stack and the
    NaT page ([Program.assign_addresses] must have run). *)
val load_program : t -> Program.t -> unit

(** Deep copy (every page's bytes duplicated), for checkpointing. *)
val copy : t -> t
