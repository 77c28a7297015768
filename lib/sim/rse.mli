(** Register Stack Engine model (Section 4.4): calls push stacked-register
    frames; when residency exceeds the physical stacked registers (96 on
    Itanium 2) the RSE spills the oldest frames (and refills on return),
    costing the cycles Figure 5 shows as "register stack engine".  Geometry
    and per-register cost default to {!Epic_mach.Machine_desc.itanium2}. *)

type t = private {
  physical : int;
  cost_per_reg : int;
  mutable size : int array;  (** frame sizes, outermost first *)
  mutable resident : int array;  (** resident registers of each frame *)
  mutable depth : int;  (** frames on the stack *)
  mutable lo : int;
      (** oldest frame that may hold resident registers: every frame below
          it is spilled whole, every frame above it resident whole *)
  mutable resident_total : int;
  mutable spills : int;
  mutable fills : int;
}

val create : ?physical:int -> ?cost_per_reg:int -> unit -> t

(** Push a frame of [size] stacked registers; returns spill cycles. *)
val on_call : t -> int -> int

(** Pop the current frame, refilling the caller; returns fill cycles. *)
val on_return : t -> int

(** Deep copy (private arrays), for checkpointing. *)
val copy : t -> t
