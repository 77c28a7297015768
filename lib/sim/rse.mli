(** Register Stack Engine model (Section 4.4): calls push stacked-register
    frames; when residency exceeds the physical stacked registers (96 on
    Itanium 2) the RSE spills the oldest frames (and refills on return),
    costing the cycles Figure 5 shows as "register stack engine".  Geometry
    and per-register cost default to {!Epic_mach.Machine_desc.itanium2}. *)

type frame = { size : int; mutable resident : int }

type t = {
  physical : int;
  cost_per_reg : int;
  mutable frames : frame list;
  mutable resident_total : int;
  mutable spills : int;
  mutable fills : int;
}

val create : ?physical:int -> ?cost_per_reg:int -> unit -> t

(** Push a frame of [size] stacked registers; returns spill cycles. *)
val on_call : t -> int -> int

(** Pop the current frame, refilling the caller; returns fill cycles. *)
val on_return : t -> int

(** Deep copy (private frame cells, order preserved), for checkpointing. *)
val copy : t -> t
