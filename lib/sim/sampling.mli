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

val key_fragment : plan -> string
(** Canonical ["i<interval>:d<detail>:w<warmup>"] form, used in
    content-addressed cache keys (the session run cache). *)

val parse_spec : string -> plan
(** Parse ["INTERVAL:DETAIL"] or ["INTERVAL:DETAIL:WARMUP"]; the empty
    string is {!default_plan}.  Raises [Invalid_argument] on bad input. *)

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
  mutable startup : Accounting.t option;
      (** the accounting at the close of the startup (first) phase *)
  mutable measured : Accounting.t option;
      (** the accounting {!finalize} measured, kept when it extrapolated *)
  mutable total_groups : int;  (** the groups {!finalize} extrapolated over *)
}

val make : plan -> state
(** Raises [Invalid_argument] unless [0 < detail < interval] and
    [warmup >= 0]. *)

val resnap : state -> float array -> unit
(** [resnap sa totals] snapshots the totals at detail-phase entry. *)

val record_phase : state -> Accounting.t -> len:int -> unit
(** [record_phase sa acc ~len] closes a detail phase of [len] groups,
    recording the category cycles charged since the phase-entry snapshot;
    the first phase closed also keeps a copy of [acc] (the startup
    phase's accounting, for {!read}).  Called by the machine at
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
    metrics/export pipeline reads extrapolated cycles unchanged; a copy of
    the accounting as measured is kept for {!read}.  When the run never
    left detail the scale is exactly 1.0 and the accounting is
    bit-identical to an unsampled run. *)

val read : state -> Accounting.t -> Accounting.experiment -> Accounting.t
(** [read sa acc e] reads experiment [e] off a sampled run finalized into
    [acc]: {!Accounting.apply} on the startup phase's and the measured
    accounting, then the estimator of {!finalize} again on those two
    phases.  Bitwise equal to a run that scaled each charge [e] admits as
    it was made, for a dyadic [1 - speedup]; within one rounding per step
    otherwise.  A run that never extrapolated is read with
    {!Accounting.apply} directly.
    @raise Invalid_argument if the speedup is outside [0, 1]. *)
