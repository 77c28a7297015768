(** Interprocedural, flow-insensitive points-to analysis (Andersen style),
    standing in for IMPACT's access-path pointer analysis.  Results are
    written onto loads and stores as abstract-location sets ([mem_tag]);
    values reaching address positions without a pointer source get an
    unknown tag — exactly the loads that become wild once speculated. *)

module Int_set : Set.S with type elt = int

type loc =
  | Lglobal of string
  | Lframe of string  (** a function's stack frame *)
  | Lheap of int  (** a malloc site, by instruction id *)

type t

(** Run the analysis over a whole program and annotate every memory
    instruction's [mem_tag].  With [enabled:false] (the paper disables
    pointer analysis for eon and perlbmk) all tags are set to unknown. *)
val analyze : ?enabled:bool -> Epic_ir.Program.t -> t
