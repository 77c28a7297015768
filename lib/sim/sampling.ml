(* SMARTS/SimPoint-style interval sampling for the machine simulator.
   Execution alternates between *detailed* phases (every stall charged, the
   clock advancing — exactly the plain simulator) and *warm* phases
   (functional execution with caches, TLB and branch predictor still
   updated but nothing charged and the clock frozen).  Because the
   simulator's functional state never reads the clock or the accounting,
   the architectural result (exit code, output, retired-op counters) of a
   sampled run is identical to a full run; only the cycle accounting is an
   estimate, extrapolated from the detailed phases.

   This module owns the plan, the runtime phase state and the finalize /
   confidence-bound math; the per-group phase switching itself lives in
   [Machine] (it has to flip the machine's warm flag and snapshot the
   accounting).  See DESIGN.md §13. *)

type plan = {
  interval : int;  (** groups per sampling period (detail + warm) *)
  detail : int;  (** detailed groups at the start of each period *)
  warmup : int;  (** extra detailed groups prepended to the first period *)
}

(* Defaults tuned on the 12-workload suite (EXPERIMENTS.md): the warmup
   covers program startup (cold caches, first-touch page walks), and a
   1/32 detail fraction keeps the geomean total-cycle error within the CI
   budget while leaving enough warm groups for the speedup to matter.
   512-group detail phases measured better than 256 at the same fraction:
   the cold-boundary bias (scoreboard and store buffer re-fill after a
   warm phase) is amortized over twice the groups. *)
let default_plan = { interval = 16384; detail = 512; warmup = 4096 }

let validate (p : plan) =
  if p.detail <= 0 then invalid_arg "Sampling: detail must be positive";
  if p.interval <= p.detail then
    invalid_arg "Sampling: interval must exceed detail";
  if p.warmup < 0 then invalid_arg "Sampling: warmup must be non-negative"

let key_fragment (p : plan) =
  Printf.sprintf "i%d:d%d:w%d" p.interval p.detail p.warmup

let parse_spec (s : string) =
  (* "INTERVAL:DETAIL" or "INTERVAL:DETAIL:WARMUP"; "" = defaults *)
  if s = "" then default_plan
  else
    let fail () =
      invalid_arg
        (Printf.sprintf
           "bad sampling spec %S (want INTERVAL:DETAIL[:WARMUP])" s)
    in
    match String.split_on_char ':' s with
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some interval, Some detail ->
            let p = { default_plan with interval; detail } in
            validate p;
            p
        | _ -> fail ())
    | [ a; b; c ] -> (
        match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c)
        with
        | Some interval, Some detail, Some warmup ->
            let p = { interval; detail; warmup } in
            validate p;
            p
        | _ -> fail ())
    | _ -> fail ()

(* Runtime phase state, driven by [Machine] once per issue group. *)
type state = {
  plan : plan;
  mutable in_detail : bool;
  mutable left : int;  (* groups remaining in the current phase *)
  mutable phase_len : int;  (* total groups of the current phase *)
  mutable detail_groups : int;  (* detailed groups recorded so far *)
  mutable snap : float array;  (* accounting totals at detail-phase entry *)
  mutable recorded : (int * float array) list;
      (* closed detail phases, most recent first: (groups, category cycles) *)
  mutable n_recorded : int;
  (* what a read-time experiment ([read]) re-extrapolates from: the
     accounting at the close of the startup phase, and — once [finalize]
     has extrapolated — the accounting it measured and the groups it
     extrapolated over *)
  mutable startup : Accounting.t option;
  mutable measured : Accounting.t option;
  mutable total_groups : int;
}

let make (p : plan) =
  validate p;
  {
    plan = p;
    in_detail = true;
    left = p.warmup + p.detail;
    phase_len = p.warmup + p.detail;
    detail_groups = 0;
    snap = Array.make 9 0.;
    recorded = [];
    n_recorded = 0;
    startup = None;
    measured = None;
    total_groups = 0;
  }

(* Snapshot the totals at detail-phase entry. *)
let resnap (sa : state) (totals : float array) = Array.blit totals 0 sa.snap 0 9

(* Close the current detail phase of [len] groups: record the category
   cycles it charged (current totals minus the entry snapshot).  The
   first phase closed is the startup phase; its accounting is kept. *)
let record_phase (sa : state) (acc : Accounting.t) ~(len : int) =
  if len > 0 then begin
    let totals = acc.Accounting.totals in
    let delta = Array.make 9 0. in
    for k = 0 to 8 do
      delta.(k) <- totals.(k) -. sa.snap.(k)
    done;
    if sa.recorded = [] then sa.startup <- Some (Accounting.copy acc);
    sa.recorded <- (len, delta) :: sa.recorded;
    sa.n_recorded <- sa.n_recorded + 1;
    sa.detail_groups <- sa.detail_groups + len
  end

(* The result block attached to a sampled run (and exported as JSON). *)
type summary = {
  s_plan : plan;
  s_total_groups : int;
  s_detail_groups : int;
  s_phases : int;  (* closed detail phases (warmup phase included) *)
  s_scale : float;  (* extrapolation factor applied to the accounting *)
  s_measured_cycles : float;  (* cycles actually charged in detail phases *)
  s_est_cycles : float;  (* extrapolated total (= the accounting total) *)
  s_ci95 : float;  (* +- bound on [s_est_cycles] from phase variance *)
  s_cat_ci95 : float array;  (* per-category +- bounds, length 9 *)
}

(* 95% confidence bounds from the inter-phase variance of per-group cycle
   rates, applied over the [extrap_groups] the steady-state rate is
   extrapolated across.  Only full-length detail phases enter the variance
   (the warmup phase and a truncated final phase have different lengths
   and cold-start bias); with fewer than two such phases the bound is
   reported as 0. *)
let confidence (sa : state) ~(extrap_groups : int) =
  let full =
    List.filter (fun (len, _) -> len = sa.plan.detail) sa.recorded
  in
  let n = List.length full in
  let cat_ci = Array.make 9 0. in
  let total_ci = ref 0. in
  if n >= 2 then begin
    let fn = float_of_int n in
    let tg = float_of_int extrap_groups in
    let bound rate_of =
      let mean =
        List.fold_left (fun s ph -> s +. rate_of ph) 0. full /. fn
      in
      let var =
        List.fold_left
          (fun s ph ->
            let d = rate_of ph -. mean in
            s +. (d *. d))
          0. full
        /. (fn -. 1.)
      in
      1.96 *. sqrt (var /. fn) *. tg
    in
    let rate_total (len, delta) =
      Array.fold_left ( +. ) 0. delta /. float_of_int len
    in
    total_ci := bound rate_total;
    for k = 0 to 8 do
      cat_ci.(k) <- bound (fun (len, delta) -> delta.(k) /. float_of_int len)
    done
  end;
  (!total_ci, cat_ci)

(* The hybrid estimator applied to one accumulator in place, from its own
   closed detail phases ([recorded], most recent first): keep the startup
   phase exactly measured and extrapolate the steady-state per-group rate
   over the rest.  Returns [extrap_groups] (for the confidence bound) and
   the estimated total.  Shared by [finalize] and [read], so an experiment
   read off a sampled run goes through the same arithmetic as the run's
   own estimate. *)
let extrapolate ~(recorded : (int * float array) list) (acc : Accounting.t)
    ~(total_groups : int) =
  (* oldest phase first; the head is the startup/warmup phase *)
  let phases = List.rev recorded in
  let startup_len, startup, steady_len, steady =
    match phases with
    | (wl, wd) :: rest ->
        let sl = List.fold_left (fun a (l, _) -> a + l) 0 rest in
        let sd = Array.make 9 0. in
        List.iter
          (fun (_, d) ->
            for k = 0 to 8 do
              sd.(k) <- sd.(k) +. d.(k)
            done)
          rest;
        if sl > 0 then (wl, wd, sl, sd)
        else
          (* the run ended before a second detail phase: the startup
             phase is the only rate sample there is *)
          (0, Array.make 9 0., wl, wd)
    | [] -> (0, Array.make 9 0., 0, Array.make 9 0.)
  in
  let extrap_groups = total_groups - startup_len in
  let totals = acc.Accounting.totals in
  let est = Array.make 9 0. in
  for k = 0 to 8 do
    est.(k) <-
      startup.(k)
      +. (steady.(k) /. float_of_int (max 1 steady_len))
         *. float_of_int extrap_groups
  done;
  (* rescale the per-function bins by each category's ratio before
     overwriting the totals (bins of a category with zero total are all
     zero and stay so) *)
  Hashtbl.iter
    (fun _ b ->
      for k = 0 to 8 do
        if totals.(k) > 0. then b.(k) <- b.(k) *. (est.(k) /. totals.(k))
      done)
    acc.Accounting.by_func;
  Array.blit est 0 totals 0 9;
  (extrap_groups, Array.fold_left ( +. ) 0. est)

(* Finalize a sampled run: close the open phase, then replace the charged
   accounting with the extrapolated estimate, so the existing metrics /
   export pipeline reads extrapolated cycles with no change.

   The estimator is a hybrid (DESIGN.md §13): the *first* detail phase —
   program startup, deliberately lengthened by [warmup] — is kept at its
   exactly-measured cost, and only the steady-state rate from the later
   detail phases is extrapolated over the unmeasured groups.  Folding the
   cold-start phase into the average was measurably wrong: startup's
   compulsory misses inflate the per-group rate by tens of percent on the
   small end of the suite.

   Per-function bins are scaled by their category's estimate/measured
   ratio, so the by-function breakdown stays consistent with the totals.
   When the run never left detail (short programs), nothing is touched and
   the accounting is bit-identical to an unsampled run. *)
let finalize (sa : state) (acc : Accounting.t) ~(total_groups : int) =
  if sa.in_detail then
    record_phase sa acc ~len:(sa.phase_len - sa.left);
  let totals = acc.Accounting.totals in
  let measured = Array.fold_left ( +. ) 0. totals in
  let dg = sa.detail_groups in
  if dg = 0 || dg >= total_groups then
    (* never left detail: exact, untouched *)
    let ci95, cat_ci95 = confidence sa ~extrap_groups:0 in
    {
      s_plan = sa.plan;
      s_total_groups = total_groups;
      s_detail_groups = dg;
      s_phases = sa.n_recorded;
      s_scale = 1.0;
      s_measured_cycles = measured;
      s_est_cycles = measured;
      s_ci95 = ci95;
      s_cat_ci95 = cat_ci95;
    }
  else begin
    sa.measured <- Some (Accounting.copy acc);
    sa.total_groups <- total_groups;
    let extrap_groups, est_total =
      extrapolate ~recorded:sa.recorded acc ~total_groups
    in
    let ci95, cat_ci95 = confidence sa ~extrap_groups in
    {
      s_plan = sa.plan;
      s_total_groups = total_groups;
      s_detail_groups = dg;
      s_phases = sa.n_recorded;
      s_scale = est_total /. max measured 1e-12;
      s_measured_cycles = measured;
      s_est_cycles = est_total;
      s_ci95 = ci95;
      s_cat_ci95 = cat_ci95;
    }
  end

(* An experiment read off a finalized sampled run whose accounting is
   [acc]: the experiment applied to the startup phase's accounting and to
   the measured one, then extrapolated again from the two phases
   [startup; measured - startup].  Nothing is charged in a warm phase, so
   the measured totals are the sum of every closed phase's delta; that sum
   and the difference are exact in the plain run (integer sums) and for a
   dyadic experiment, so the read reproduces, bit for bit, the estimate of
   a run that scaled each charge as it was made.  A run that never
   extrapolated is read directly. *)
let read (sa : state) (acc : Accounting.t) (e : Accounting.experiment) =
  match (sa.measured, sa.startup, List.rev sa.recorded) with
  | Some measured, Some startup, (startup_len, _) :: _ ->
      let m = Accounting.apply measured e in
      let s = Accounting.apply startup e in
      let steady_len = sa.detail_groups - startup_len in
      let steady =
        Array.init 9 (fun k -> m.Accounting.totals.(k) -. s.Accounting.totals.(k))
      in
      let recorded =
        (if steady_len > 0 then [ (steady_len, steady) ] else [])
        @ [ (startup_len, s.Accounting.totals) ]
      in
      ignore (extrapolate ~recorded m ~total_groups:sa.total_groups);
      m
  | _ -> Accounting.apply acc e
