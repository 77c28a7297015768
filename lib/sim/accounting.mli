(** Cycle accounting into the paper's nine categories (Figure 5), globally
    and binned per function (the Pfmon-style sampling behind Figure 10). *)

type category =
  | Unstalled  (** unstalled execution *)
  | Float_scoreboard
  | Misc  (** int scoreboard, misc scoreboard, exception flush *)
  | Int_load_bubble  (** data-cache stalls on integer loads *)
  | Micropipe  (** memory-subsystem micro-stalls: DTLB walks, store buffer *)
  | Front_end  (** instruction-cache / fetch bubbles *)
  | Br_mispredict  (** branch misprediction flush *)
  | Rse  (** register stack engine traffic *)
  | Kernel  (** OS time: wild-load page walks, faults *)

val all_categories : category list

(** Stable index of a category in [totals] (0..8). *)
val index : category -> int

val name : category -> string

(** Inverse of {!name}; [None] for an unknown name. *)
val category_of_name : string -> category option

(** A causal-profiling target: one function's cycles, one stall category
    program-wide, or one (function, category) pair — the cycles of a
    single stall category within a single function, everything else
    untouched. *)
type target =
  | Target_func of string
  | Target_category of category
  | Target_func_category of string * category

(** A COZ-style virtual speedup: while active, every charge attributable
    to [target] is scaled by [1 - speedup] — the clock, the cache/TLB/
    predictor state and the program semantics are untouched, so the run's
    accounting answers "what would end-to-end cycles be if this target
    were [speedup] faster?". *)
type experiment = {
  target : target;
  speedup : float;  (** fraction removed, in [0, 1]; 1.0 = target free *)
}

type t = {
  totals : float array;  (** length 9, indexed by [index] *)
  by_func : (string, float array) Hashtbl.t;
  mutable exp_keep : float;  (** charge multiplier; 1.0 = inactive *)
  mutable exp_cat : int;  (** targeted category index; -1 = all *)
  mutable exp_all_funcs : bool;  (** no function filter *)
  mutable exp_bins : float array;
      (** the targeted function's bins, matched physically *)
}

val create : unit -> t

(** Install (or clear, with [None]) the active virtual-speedup experiment.
    With no experiment — or a no-op one ([speedup = 0.]) — charging is
    bit-identical to an accounting that never had the hook.
    @raise Invalid_argument if [speedup] is outside [0, 1]. *)
val set_experiment : t -> experiment option -> unit

(** Whether a non-no-op experiment is installed. *)
val experiment_active : t -> bool

(** [charge t func cat cycles] attributes cycles globally and to [func]. *)
val charge : t -> string -> category -> int -> unit

(** [bins t func] is [func]'s per-function bin array, created on demand.
    Callers may hold on to it and charge through {!charge_bins}; the array
    is the live accounting state, not a copy. *)
val bins : t -> string -> float array

(** [charge_bins t b cat cycles] is {!charge} with the per-function bins
    already in hand — the simulator's hot path, skipping the name lookup.
    [b] must come from {!bins} on the same [t]. *)
val charge_bins : t -> float array -> category -> int -> unit

(** Sum of all categories: the program's total cycles. *)
val total : t -> float

val get : t -> category -> float

(** The paper's "planned" cycles (footnote 4): unstalled plus the
    scoreboard components — everything the compiler could statically
    anticipate. *)
val planned : t -> float

val func_total : t -> string -> float
val functions : t -> string list
val pp : Format.formatter -> t -> unit

(** Deep copy for checkpointing: private totals and bin arrays, the
    experiment state reset to inactive (resumers install their own). *)
val copy : t -> t

(** Retroactively apply an experiment to already-charged cycles: scale the
    target's bins (and their contribution to the totals) by [1 - speedup],
    as if every matching past charge had gone through the experiment.
    Used when resuming a checkpointed prefix under an experiment the
    prefix was simulated without; exact in real arithmetic, within an ulp
    of the straight-through run in floats. *)
val apply_experiment_to_past : t -> experiment -> unit

(** A fused set of N concurrent virtual-speedup experiments carried by one
    simulation.  Each experiment owns a full private accumulator with the
    experiment installed via {!set_experiment}.  A charge goes, unscaled,
    to one base accumulator and, through {!charge_bins}, only to the
    experiments whose filter admits its category (speedup <> 0 and the
    experiment targets that category or every category).  The categories
    an experiment does not route would receive only unscaled integer
    charges in its serial run, so they equal the base's bit for bit;
    {!set_accounts} copies them over.  Each fused experiment's totals and
    per-function bins are therefore bit-identical to a lone accumulator
    with only that experiment installed, whatever else the set carries.
    The host accumulator is charged separately as usual and is untouched
    by the set.  See DESIGN.md §14. *)
type exp_set

(** Fresh accumulators, one per experiment, experiments installed.
    @raise Invalid_argument if any speedup is outside [0, 1]. *)
val make_set : experiment list -> exp_set

(** A set resuming from a checkpointed prefix: each accumulator is a
    private {!copy} of [past] with its experiment installed and applied
    retroactively via {!apply_experiment_to_past} — within an ulp of the
    straight-through fused run.  The base starts from a plain copy. *)
val resume_set : past:t -> experiment list -> exp_set

val set_size : exp_set -> int
val set_experiments : exp_set -> experiment array

(** The experiments' accumulators, in the order the experiments were
    given, each brought up to date first: its unrouted categories (totals
    and every function's bin) are copied from the base.  Callable at any
    point of a run; charging may go on afterwards. *)
val set_accounts : exp_set -> t array

(** The base accumulator: every charge, unscaled.  Read-only for callers;
    a sampled run extrapolates it alongside the experiments, so that
    {!set_accounts} after extrapolation copies extrapolated columns. *)
val set_base : exp_set -> t

(** [set_bins s bs func] refills the caller's per-experiment bins scratch
    for [func]: slot [i] becomes [func]'s live bins in accumulator [i]
    (created on demand in every accumulator, routed or not, and in the
    base).  [Array.length bs] must be [set_size s]. *)
val set_bins : exp_set -> float array array -> string -> unit

(** [charge_set s bs cat cycles] charges the base and, via {!charge_bins},
    every experiment routed for [cat], [bs] being the current function's
    per-experiment bins from {!set_bins}. *)
val charge_set : exp_set -> float array array -> category -> int -> unit
