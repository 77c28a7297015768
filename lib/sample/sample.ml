(* Measured-vs-extrapolated accuracy harness for sampled simulation
   (DESIGN.md §13): each workload is run in full and under interval
   sampling on the same ILP-CS binary, and the two accountings are compared — total-cycle
   relative error, per-category error (normalized by the *total*, so a
   tiny category cannot blow up a relative bound), and host-side speedup.
   The CI `sample-accuracy` job runs this over a subset and enforces the
   documented budgets; EXPERIMENTS.md tabulates the full suite. *)

module Workload = Epic_workloads.Workload
module Machine = Epic_sim.Machine
module Accounting = Epic_sim.Accounting
module Sampling = Epic_sim.Sampling
module Json = Epic_obs.Json
module Matrix = Epic_core.Matrix

(* Error budgets enforced by CI (and documented in EXPERIMENTS.md). *)
let total_budget = 0.02
let cat_budget = 0.05

type row = {
  r_workload : string;
  r_full_cycles : float;
  r_sampled_cycles : float;
  r_total_err : float;  (* |sampled - full| / full *)
  r_cat_err : float array;  (* per category |delta| / full total, length 9 *)
  r_max_cat_err : float;
  r_detail_fraction : float;  (* detailed groups / total groups *)
  r_full_wall_s : float;
  r_sampled_wall_s : float;
  r_speedup : float;  (* full wall / sampled wall *)
  r_output_ok : bool;  (* sampled output and exit code match the full run *)
  r_ci95_rel : float;  (* sampled run's own CI95 bound / estimate *)
}

type report = {
  plan : Sampling.plan;
  rows : row list;
  geomean_err : float;  (* geomean of (1 + err) - 1 over workloads *)
  worst_cat_err : float;
  geomean_speedup : float;
  pass : bool;  (* geomean_err <= total_budget && worst_cat_err <= cat_budget *)
}

(* One side of a workload's comparison: what the full or the sampled
   run's reducer keeps, including its simulation's wall time. *)
type side = {
  code : int;
  output : string;
  totals : float array;
  summary : Sampling.summary option;
  wall : float;
}

let side (s : Matrix.sim) =
  {
    code = s.Matrix.code;
    output = s.Matrix.output;
    totals = s.Matrix.accounts.(0);
    summary = Machine.sample_summary s.Matrix.machine;
    wall = s.Matrix.host.Epic_core.Metrics.h_wall_s;
  }

let row (w : Workload.t) full sampled =
  let full_total = Array.fold_left ( +. ) 0. full.totals in
  let sampled_total = Array.fold_left ( +. ) 0. sampled.totals in
  let cat_err =
    Array.init 9 (fun k ->
        abs_float (sampled.totals.(k) -. full.totals.(k)) /. max full_total 1.)
  in
  let detail_fraction, ci95_rel =
    match sampled.summary with
    | Some su ->
        ( float_of_int su.Sampling.s_detail_groups
          /. float_of_int (max 1 su.Sampling.s_total_groups),
          su.Sampling.s_ci95 /. max su.Sampling.s_est_cycles 1. )
    | None -> (1.0, 0.)
  in
  {
    r_workload = w.Workload.short;
    r_full_cycles = full_total;
    r_sampled_cycles = sampled_total;
    r_total_err = abs_float (sampled_total -. full_total) /. max full_total 1.;
    r_cat_err = cat_err;
    r_max_cat_err = Array.fold_left max 0. cat_err;
    r_detail_fraction = detail_fraction;
    r_full_wall_s = full.wall;
    r_sampled_wall_s = sampled.wall;
    r_speedup = full.wall /. max sampled.wall 1e-9;
    r_output_ok = full.code = sampled.code && String.equal full.output sampled.output;
    r_ci95_rel = ci95_rel;
  }

(* Each workload is two ILP-CS cells on one compile key: the full run and
   the sampled run; with a caching backend the program compiles once. *)
let run ?(plan = Sampling.default_plan) ?(workloads = Epic_workloads.Suite.all)
    backend =
  let cells =
    List.concat_map
      (fun w ->
        let full =
          Matrix.cell w (Epic_core.Experiments.config_for w Epic_core.Config.ILP_CS) side
        in
        [ full; { full with Matrix.plan = Matrix.Sampled plan } ])
      workloads
  in
  let sides, _ = Matrix.run backend cells in
  let rows = List.mapi (fun i w -> row w sides.(2 * i) sides.((2 * i) + 1)) workloads in
  let geomean = Epic_core.Metrics.geomean in
  let geomean_err = geomean (List.map (fun r -> 1. +. r.r_total_err) rows) -. 1. in
  let worst_cat_err = List.fold_left (fun a r -> max a r.r_max_cat_err) 0. rows in
  let outputs_ok = List.for_all (fun r -> r.r_output_ok) rows in
  {
    plan;
    rows;
    geomean_err;
    worst_cat_err;
    geomean_speedup = geomean (List.map (fun r -> r.r_speedup) rows);
    pass = outputs_ok && geomean_err <= total_budget && worst_cat_err <= cat_budget;
  }

let row_to_json (r : row) =
  Json.Obj
    [
      ("workload", Json.Str r.r_workload);
      ("full_cycles", Json.Float r.r_full_cycles);
      ("sampled_cycles", Json.Float r.r_sampled_cycles);
      ("total_err", Json.Float r.r_total_err);
      ( "cat_err",
        Json.Obj
          (List.map
             (fun c ->
               ( Accounting.name c,
                 Json.Float r.r_cat_err.(Accounting.index c) ))
             Accounting.all_categories) );
      ("max_cat_err", Json.Float r.r_max_cat_err);
      ("detail_fraction", Json.Float r.r_detail_fraction);
      ("full_wall_s", Json.Float r.r_full_wall_s);
      ("sampled_wall_s", Json.Float r.r_sampled_wall_s);
      ("speedup", Json.Float r.r_speedup);
      ("output_ok", Json.Bool r.r_output_ok);
      ("ci95_rel", Json.Float r.r_ci95_rel);
    ]

let to_json (rep : report) =
  Json.Obj
    [
      ("bench", Json.Str "sample-accuracy");
      ("plan", Json.Str (Sampling.key_fragment rep.plan));
      ("total_budget", Json.Float total_budget);
      ("cat_budget", Json.Float cat_budget);
      ("geomean_err", Json.Float rep.geomean_err);
      ("worst_cat_err", Json.Float rep.worst_cat_err);
      ("geomean_speedup", Json.Float rep.geomean_speedup);
      ("pass", Json.Bool rep.pass);
      ("rows", Json.List (List.map row_to_json rep.rows));
    ]

let print ppf (rep : report) =
  Fmt.pf ppf "sampled-simulation accuracy (plan %s)@."
    (Sampling.key_fragment rep.plan);
  Fmt.pf ppf "%-10s %14s %14s %8s %8s %8s %8s %6s@." "workload" "full cycles"
    "sampled" "err%" "maxcat%" "detail%" "speedup" "out";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-10s %14.0f %14.0f %8.3f %8.3f %8.2f %8.2f %6s@."
        r.r_workload r.r_full_cycles r.r_sampled_cycles
        (100. *. r.r_total_err) (100. *. r.r_max_cat_err)
        (100. *. r.r_detail_fraction) r.r_speedup
        (if r.r_output_ok then "ok" else "FAIL"))
    rep.rows;
  Fmt.pf ppf
    "geomean err %.3f%% (budget %.1f%%), worst category err %.3f%% (budget \
     %.1f%%), geomean speedup %.2fx -> %s@."
    (100. *. rep.geomean_err) (100. *. total_budget)
    (100. *. rep.worst_cat_err) (100. *. cat_budget) rep.geomean_speedup
    (if rep.pass then "PASS" else "FAIL")
