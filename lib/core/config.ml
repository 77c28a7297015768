(* Compilation configurations.  The four levels reproduce the paper's
   columns: a GCC-like traditional compiler, IMPACT classical (O-NS), ILP
   transformation without control speculation (ILP-NS), and with it
   (ILP-CS).  All IMPACT levels share inlining, indirect-call specialization
   and interprocedural pointer analysis, exactly as the paper holds those
   constant across its comparison. *)

type level = Gcc_like | O_NS | ILP_NS | ILP_CS

type t = {
  level : level;
  spec_model : Epic_ilp.Speculate.model; (* ILP-CS only *)
  pointer_analysis : bool; (* disabled for eon/perlbmk in the paper *)
  inline_budget : float;
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
      (* extension (paper Section 2: not used by IMPACT's main results;
         "a limited initial application is providing a 5% speedup" on gap) *)
}

let make level =
  {
    level;
    spec_model = Epic_ilp.Speculate.General;
    pointer_analysis = true;
    inline_budget = 1.6;
    superblock = Epic_ilp.Superblock.default_params;
    hyperblock = Epic_ilp.Hyperblock.default_params;
    peel = Epic_ilp.Peel.default_params;
    unroll = Epic_ilp.Unroll.default_params;
    enable_peel = true;
    enable_unroll = true;
    enable_hyperblock = true;
    enable_superblock = true;
    enable_height_reduction = true;
    enable_data_speculation = false;
  }

let gcc_like = make Gcc_like
let o_ns = make O_NS
let ilp_ns = make ILP_NS
let ilp_cs = make ILP_CS

let level_name = function
  | Gcc_like -> "GCC"
  | O_NS -> "O-NS"
  | ILP_NS -> "ILP-NS"
  | ILP_CS -> "ILP-CS"

let name c =
  level_name c.level
  ^
  match (c.level, c.spec_model) with
  | ILP_CS, Epic_ilp.Speculate.Sentinel -> "(sentinel)"
  | _ -> ""

let is_ilp c = match c.level with ILP_NS | ILP_CS -> true | Gcc_like | O_NS -> false
let has_speculation c = c.level = ILP_CS

type ablation = { a_name : string; a_isolates : string; a_tweak : t -> t }

let ablations =
  List.map
    (fun (a_name, a_isolates, a_tweak) -> { a_name; a_isolates; a_tweak })
    [
      ( "ILP-CS",
        "the full ILP + control-speculation configuration (baseline)",
        Fun.id );
      ( "no-hyperblock",
        "if-conversion's share of the region-formation gains (Fig. 7)",
        fun c -> { c with enable_hyperblock = false } );
      ( "no-peel",
        "loop peeling's contribution to straightened control flow",
        fun c -> { c with enable_peel = false } );
      ( "no-unroll",
        "unrolling's ILP exposure vs its code-growth cost (Sec. 3.2)",
        fun c -> { c with enable_unroll = false } );
      ( "no-tail-dup",
        "superblock tail duplication's share of code growth (Fig. 5)",
        fun c ->
          {
            c with
            superblock = { c.superblock with Epic_ilp.Superblock.growth_budget = 0.0 };
          } );
      ( "no-inline",
        "cross-function ILP from inlining vs its I-cache pressure",
        fun c -> { c with inline_budget = 1.0 } );
      ( "no-height-red",
        "dependence-height reduction on critical recurrence paths",
        fun c -> { c with enable_height_reduction = false } );
    ]
