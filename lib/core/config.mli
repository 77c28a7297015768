(** Compilation configurations: the four optimization levels the paper
    compares, plus the knobs the experiments (and ablations) turn. *)

(** The paper's four columns. *)
type level =
  | Gcc_like  (** traditional compiler stand-in: classical opts only *)
  | O_NS  (** IMPACT classical: inlining + IPA, no predication/speculation *)
  | ILP_NS  (** + structural region formation, no control speculation *)
  | ILP_CS  (** + control speculation *)

type t = {
  level : level;
  spec_model : Epic_ilp.Speculate.model;
      (** general vs sentinel control speculation (ILP-CS only) *)
  pointer_analysis : bool;
      (** the paper disables pointer analysis for eon and perlbmk *)
  inline_budget : float;  (** code-growth factor for inlining (paper: 1.6) *)
  superblock : Epic_ilp.Superblock.params;
  hyperblock : Epic_ilp.Hyperblock.params;
  peel : Epic_ilp.Peel.params;
  unroll : Epic_ilp.Unroll.params;
  enable_peel : bool;
  enable_unroll : bool;
  enable_hyperblock : bool;
  enable_superblock : bool;
  enable_height_reduction : bool;
  enable_data_speculation : bool;
      (** extension: ld.a/chk.a through the ALAT (off by default, as in the
          paper's shipped results) *)
}

(** [make level] builds a configuration with the defaults the experiments
    use: general speculation, pointer analysis on, an inlining budget of
    1.6; a record update overrides any field. *)
val make : level -> t

val gcc_like : t
val o_ns : t
val ilp_ns : t
val ilp_cs : t

(** Short name of a level, e.g. ["ILP-CS"]. *)
val level_name : level -> string

(** Name of a configuration, including the speculation model when it is not
    the default. *)
val name : t -> string

(** Does this configuration run the structural ILP transforms? *)
val is_ilp : t -> bool

(** Does this configuration apply control speculation? *)
val has_speculation : t -> bool

(** A named compiler ablation: a tweak applied to a workload's ILP-CS
    configuration. *)
type ablation = {
  a_name : string;  (** flag-safe: usable as a command-line value *)
  a_isolates : string;
      (** one line: which paper finding this ablation isolates *)
  a_tweak : t -> t;
}

(** The compiler ablations the sweep and the [ablations] artifact share:
    the identity baseline [ILP-CS] first, then [no-hyperblock], [no-peel],
    [no-unroll], [no-tail-dup], [no-inline], [no-height-red]. *)
val ablations : ablation list
