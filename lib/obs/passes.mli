(** Per-pass compiler instrumentation: the driver wraps every phase of the
    Figure-4 pipeline and records wall time, fixed-point round counts and
    IR-size deltas here, giving each compilation a machine-readable cost
    breakdown to diff across PRs. *)

type record = {
  name : string;  (** phase name, in execution order *)
  wall_s : float;  (** wall-clock time spent in the phase *)
  rounds : int;  (** fixed-point rounds run (1 for single-shot passes) *)
  instrs_before : int;
  instrs_after : int;
  blocks_before : int;
  blocks_after : int;
  bytes_before : int;
  bytes_after : int;
      (** estimated code bytes (16-byte bundles at the architectural
          3-ops-per-bundle density); exact only after layout *)
  cache : (string * int * int) list;
      (** analysis-cache counters attributable to this phase, as
          [(analysis, hits, misses)] rows; empty when the phase ran outside
          the pass manager or touched no cached analysis *)
}

type t

val create : unit -> t

val add :
  t ->
  name:string ->
  wall_s:float ->
  rounds:int ->
  instrs:int * int ->
  blocks:int * int ->
  bytes:int * int ->
  ?cache:(string * int * int) list ->
  unit ->
  unit

(** Records in execution order. *)
val records : t -> record list

val record_to_json : record -> Json.t
