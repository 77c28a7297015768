(** Runtime intrinsics: the externally-provided operations of the mini-C
    runtime, standing in for the gcc-compiled system libraries the paper
    observes as unoptimizable (Section 4.5).  Both the reference
    interpreter and the machine simulator run {!call}. *)

type kind =
  | Print_int
  | Print_char
  | Malloc
  | Input  (** input(i): the i-th word of the input vector, 0 past the end *)
  | Input_len
  | Memcpy
  | Memset
  | Exit

val of_name : string -> kind option
val is_intrinsic : string -> bool

(** Base cycle cost charged by the timing model per call. *)
val base_cost : kind -> int

exception Exit_program of int  (** raised by the [exit] intrinsic *)

(** The bump allocator's next address, the program output and input. *)
type runtime = { mutable heap : int64; output : Buffer.t; input : int64 array }

(** The arguments an intrinsic reads, and the values it returns (0 or 1). *)
val arity : kind -> int

val results : kind -> int

(** A call's [n] arguments: word [j] is the native-endian [int64] at
    offset [8j] of [args], NaT when [nats.(j)].  [arg args nats n j] reads
    one: 0 past [n], and 0 when NaT. *)
val arg : Bytes.t -> bool array -> int -> int -> int64

(** [nat_args k nats n]: the NaT arguments [k] reads, each one NaT
    consumption.  Count them before {!call}, which may not return. *)
val nat_args : kind -> bool array -> int -> int

(** [call rt mem k args nats n]: run [k]; a returned value lands in word
    0 of [args], [nats.(0)] cleared. *)
val call : runtime -> Memimage.t -> kind -> Bytes.t -> bool array -> int -> unit
