(** Dependence-DAG construction over one block (basic block, superblock or
    hyperblock).  Edges carry latencies; a latency-0 edge means the pair may
    share an issue group provided program order is preserved.

    Control rules encode the speculation model: branches pin later
    may-fault operations and later definitions of exit-live registers;
    stores/calls/checks above a branch may not sink below it; nothing may
    be scheduled after an unconditional transfer.  Control-speculative
    loads are exempt from the may-fault rule — the scheduling freedom the
    paper's Section 3.2 describes. *)

type t = {
  instrs : Epic_ir.Instr.t array;
  succs : (int * int) list array;  (** (target index, latency) *)
  preds : (int * int) list array;
  mutable n_edges : int;
}

(** Edge latencies are planned under [desc]. *)
val build :
  desc:Epic_mach.Machine_desc.t ->
  Epic_analysis.Liveness.t ->
  Epic_ir.Block.t ->
  t

(** Critical-path priority: longest latency-weighted path to any sink. *)
val priorities : t -> int array
