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

(** A COZ-style virtual speedup: every charge attributable to [target]
    scaled by [1 - speedup] — the clock, the cache/TLB/predictor state and
    the program semantics untouched — so the scaled accounting answers
    "what would end-to-end cycles be if this target were [speedup]
    faster?".  Since nothing in the simulation reads the accounting, an
    experiment is evaluated when it is read ({!apply}). *)
type experiment = {
  target : target;
  speedup : float;  (** fraction removed, in [0, 1]; 1.0 = target free *)
}

type t = {
  totals : float array;  (** length 9, indexed by [index] *)
  by_func : (string, float array) Hashtbl.t;
}

val create : unit -> t

(** [charge t func cat cycles] attributes cycles globally and to [func]. *)
val charge : t -> string -> category -> int -> unit

(** [bins t func] is [func]'s per-function bin array, created on demand.
    The array is the live accounting state, not a copy: the simulator
    holds on to the running function's bins and charges by adding the
    cycles to [totals] and to the bins at the category's {!index}
    ([Machine.charge]), as {!charge} does. *)
val bins : t -> string -> float array

(** Sum of all categories: the program's total cycles. *)
val total : t -> float

val get : t -> category -> float

(** The paper's "planned" cycles (footnote 4): unstalled plus the
    scoreboard components — everything the compiler could statically
    anticipate. *)
val planned : t -> float

val func_total : t -> string -> float
val functions : t -> string list

(** Deep copy: private totals and bin arrays. *)
val copy : t -> t

(** [apply t e] is [e] read off [t]: a fresh accounting equal to what
    scaling every charge [e] admits by [1 - speedup], as it was made,
    would have added up.  A category experiment scales that column of the
    totals and of every function's bins; a function experiment scales the
    function's bins and moves each total by what its bin lost, creating
    the bins (as zeros) if the function never charged.  Bitwise equal to
    the scaled charges for a dyadic [1 - speedup] (every bin is an exact
    integer sum), within one rounding otherwise.  [t] is not changed.
    @raise Invalid_argument if [speedup] is outside [0, 1]. *)
val apply : t -> experiment -> t
