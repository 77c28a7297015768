(** SMARTS/SimPoint-style interval sampling: the plan (period geometry),
    the per-run phase state driven by {!Machine}, and the finalize math
    that extrapolates the detailed phases' cycle accounting to the whole
    run with per-category confidence bounds.  See DESIGN.md §13.

    A sampled run is architecturally exact — exit code, output and every
    retired-op counter are identical to a full run, because warm phases
    still execute every instruction and update the caches, TLB and branch
    predictor.  Only cycles (and the cache/TLB access counters, which the
    warm phases service through one-entry filters) are estimates. *)

type plan = {
  interval : int;  (** groups per sampling period (detail + warm) *)
  detail : int;  (** detailed groups at the start of each period *)
  warmup : int;  (** extra detailed groups prepended to the first period *)
}

val default_plan : plan
(** [{interval = 16384; detail = 512; warmup = 4096}], tuned on the
    12-workload suite (EXPERIMENTS.md accuracy table). *)

val validate : plan -> unit
(** Raises [Invalid_argument] unless [0 < detail < interval] and
    [warmup >= 0]. *)

val key_fragment : plan -> string
(** Canonical ["i<interval>:d<detail>:w<warmup>"] form, used in
    content-addressed cache keys (the session run cache). *)

val parse_spec : string -> plan
(** Parse ["INTERVAL:DETAIL"] or ["INTERVAL:DETAIL:WARMUP"]; the empty
    string is {!default_plan}.  Raises [Invalid_argument] on bad input. *)

(** A per-experiment sampling track: a fused run's extra accumulators each
    get their own phase-entry snapshot and recorded deltas, taken at the
    same groups-driven phase boundaries as the host's, then fed through
    the same estimator in {!finalize} — so a fused sampled experiment is
    bit-identical to its serial sampled run.  The set's base
    ({!Accounting.set_base}) is tracked and extrapolated alongside, and
    supplies each experiment's unrouted categories. *)
type track = {
  tr_acc : Accounting.t;
  tr_snap : float array;  (** length 9 *)
  mutable tr_recorded : (int * float array) list;
}

(** Runtime phase state, created by {!Machine.run} from a plan and driven
    once per issue group.  Transparent because the per-group switch logic
    lives in the machine's hot loop (it flips the warm flag and snapshots
    the accounting); treat it as private elsewhere. *)
type state = {
  plan : plan;
  mutable in_detail : bool;
  mutable left : int;  (** groups remaining in the current phase *)
  mutable phase_len : int;  (** total groups of the current phase *)
  mutable detail_groups : int;  (** detailed groups recorded so far *)
  mutable snap : float array;  (** accounting totals at detail-phase entry *)
  mutable recorded : (int * float array) list;
      (** closed detail phases, most recent first: (groups, cycles[9]) *)
  mutable n_recorded : int;
  mutable tracks : track list;  (** fused-experiment accumulators, if any *)
}

val make : plan -> state

val attach : state -> Accounting.exp_set -> unit
(** Attach a fused set's base and experiment accumulators as tracks.
    Must be called before the run starts (their totals still zero,
    matching the initial snapshot). *)

val resnap : state -> float array -> unit
(** [resnap sa totals] re-snapshots at detail-phase entry: the host totals
    into [sa.snap] plus every track's own totals. *)

val record_phase : state -> float array -> len:int -> unit
(** [record_phase sa totals ~len] closes a detail phase of [len] groups,
    recording the category cycles charged since the phase-entry snapshot —
    for the host and for every attached track.  Called by the machine at
    detail->warm transitions. *)

type summary = {
  s_plan : plan;
  s_total_groups : int;
  s_detail_groups : int;
  s_phases : int;  (** closed detail phases, the warmup phase included *)
  s_scale : float;  (** extrapolation factor applied to the accounting *)
  s_measured_cycles : float;  (** cycles charged during detail phases *)
  s_est_cycles : float;  (** extrapolated total (= the accounting total) *)
  s_ci95 : float;  (** +- bound on [s_est_cycles] from phase variance *)
  s_cat_ci95 : float array;  (** per-category +- bounds, length 9 *)
}

val finalize : state -> Accounting.t -> total_groups:int -> summary
(** Close the open phase and scale the accounting in place — totals and
    every per-function bin — by [total_groups / detail_groups], so the
    metrics/export pipeline reads extrapolated cycles unchanged.  Every
    attached track is extrapolated the same way from its own recorded
    deltas.  When the run never left detail the scale is exactly 1.0 and
    the accounting is bit-identical to an unsampled run. *)
