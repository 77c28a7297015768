(** Modulo-scheduling (IMS) analysis: initiation-interval bounds for
    single-block inner loops — ResMII from the Itanium 2 resource model,
    RecMII from loop-carried register recurrences.  Kernel code generation
    is played by unrolling + list scheduling (DESIGN.md §7); this module
    reports how close a schedule comes to the modulo bound
    (see [epicc --loops]). *)

type loop_analysis = {
  label : string;
  n_ops : int;
  res_mii : int;  (** resource-constrained minimum initiation interval *)
  rec_mii : int;  (** recurrence-constrained minimum initiation interval *)
  mii : int;  (** max of the two *)
  achieved_ii : int option;
      (** issue-cycle span of the block after list scheduling *)
}

(** Is this block an eligible software-pipelining candidate (a self-loop
    without calls)? Returns its analysis if so, with the bounds taken from
    the resources and latencies of [desc]. *)
val analyze_block :
  desc:Epic_mach.Machine_desc.t -> Epic_ir.Block.t -> loop_analysis option

(** All eligible loops of a program, tagged with their function name. *)
val analyze :
  desc:Epic_mach.Machine_desc.t ->
  Epic_ir.Program.t ->
  (string * loop_analysis) list
