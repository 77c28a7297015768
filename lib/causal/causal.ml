(* Causal profiling via virtual speedups (COZ transplanted to the
   simulator).  See causal.mli for the contract and DESIGN.md §11 for why
   the experiment lives in the accounting layer and why a factor-1.0
   category experiment is the perfect-* sweep variant. *)

open Epic_core
open Epic_workloads
module Acc = Epic_sim.Accounting
module Json = Epic_obs.Json

type target = Acc.target =
  | Target_func of string
  | Target_category of Acc.category
  | Target_func_category of string * Acc.category

let target_name = function
  | Target_func f -> f
  | Target_category c -> Acc.name c
  | Target_func_category (f, c) -> f ^ ":" ^ Acc.name c

let parse_target s =
  match Acc.category_of_name s with
  | Some c -> Target_category c
  | None -> (
      (* "func:category" names a per-(function, category) pair; the mini-C
         function names are C identifiers, so ':' is unambiguous *)
      match String.index_opt s ':' with
      | Some i -> (
          let f = String.sub s 0 i in
          let cname = String.sub s (i + 1) (String.length s - i - 1) in
          match Acc.category_of_name cname with
          | Some c when f <> "" -> Target_func_category (f, c)
          | _ -> Target_func s)
      | None -> Target_func s)

let default_factors = [ 0.10; 0.25; 0.50; 1.00 ]

type point = {
  p_factor : float;
  p_cycles : float;
  p_speedup : float;
  p_output_ok : bool;
}

type curve = {
  k_target : target;
  k_points : point list;
  k_local_cycles : float;
  k_local_share : float;
  k_slope : float;
  k_linearity : float;
  k_delta_full : float;
}

type wreport = {
  c_workload : string;
  c_base_cycles : float;
  c_base_categories : float array;
  c_obs : Json.t;
  c_curves : curve list;
  c_output_ok : bool;
}

type agg = {
  g_target : target;
  g_workloads : int;
  g_mean_slope : float;
  g_rank_best : int;
  g_rank_worst : int;
}

(* How many cells the detailed simulations paid for (DESIGN.md §14). *)
type grid = {
  gr_cells : int; (* (target x factor) cells delivered *)
  gr_sims : int; (* detailed simulations run: the baselines *)
}

type report = {
  r_workloads : string list;
  r_factors : float list;
  r_reports : wreport list;
  r_aggregate : agg list;
  r_grid : grid;
  r_wall_s : float;
}

(* Top profile-hot functions first (descending samples, the profiler's
   order), then every nonzero stall category.  Unstalled is excluded: its
   cycles are the work itself, and "make the work free" ranks first on
   every program without diagnosing anything. *)
let plan ?(split_funcs = 0) ?(func_bins = []) ~top_funcs ~prof_by_func
    ~categories () =
  let funcs =
    List.filteri (fun i _ -> i < top_funcs) prof_by_func
    |> List.map (fun (f, _) -> Target_func f)
  in
  let cats =
    List.filter_map
      (fun c ->
        if c <> Acc.Unstalled && categories.(Acc.index c) > 0. then
          Some (Target_category c)
        else None)
      Acc.all_categories
  in
  (* Per-(function, category) splits of the top profile-hot functions: one
     target per nonzero stall category of the function (unstalled excluded
     for the same reason as program-wide), so a function's categories can
     be scaled — and ranked — independently. *)
  let splits =
    List.filteri (fun i _ -> i < split_funcs) prof_by_func
    |> List.concat_map (fun (f, _) ->
           match List.assoc_opt f func_bins with
           | None -> []
           | Some bins ->
               List.filter_map
                 (fun c ->
                   if c <> Acc.Unstalled && bins.(Acc.index c) > 0. then
                     Some (Target_func_category (f, c))
                   else None)
                 Acc.all_categories)
  in
  funcs @ cats @ splits

(* A baseline reduced to what its workload's curves and report need. *)
type base = {
  b_cycles : float;
  b_categories : float array;
  b_func_bins : (string * float array) list;
      (* per-function copies of the nine baseline bins: local cycles of
         both function and (function, category) targets *)
  b_prof_by_func : (string * int) list;
  b_obs : Json.t;
  b_output_ok : bool;
}

let baseline (s : Matrix.sim) =
  let acc = s.Matrix.machine.Epic_sim.Machine.acc in
  {
    b_cycles = Acc.total acc;
    b_categories = s.Matrix.accounts.(0);
    b_func_bins =
      List.map (fun f -> (f, Array.copy (Acc.bins acc f))) (Acc.functions acc);
    b_prof_by_func = Epic_obs.Profile.by_func (Option.get s.Matrix.profile);
    b_obs = Export.obs_to_json ?trace:s.Matrix.trace ?profile:s.Matrix.profile ();
    b_output_ok = s.Matrix.output_ok;
  }

(* One (target, factor) cell: its experiment read off the baseline run. *)
let point ~(base : base) (s : Matrix.sim) target factor =
  let cycles =
    Acc.total (Epic_sim.Machine.read s.Matrix.machine { Acc.target; speedup = factor })
  in
  {
    p_factor = factor;
    p_cycles = cycles;
    p_speedup = (base.b_cycles -. cycles) /. base.b_cycles;
    p_output_ok = base.b_output_ok;
  }

let curve_of_points ~(base : base) (t : target) (points : point list) =
  let func_bins f = List.assoc_opt f base.b_func_bins in
  let local =
    match t with
    | Target_category c -> base.b_categories.(Acc.index c)
    | Target_func f -> (
        match func_bins f with
        | Some b -> Array.fold_left ( +. ) 0. b
        | None -> 0.)
    | Target_func_category (f, c) -> (
        match func_bins f with Some b -> b.(Acc.index c) | None -> 0.)
  in
  (* least-squares through the origin: slope = Σ s·p / Σ s² *)
  let num =
    List.fold_left (fun s p -> s +. (p.p_factor *. p.p_speedup)) 0. points
  and den =
    List.fold_left (fun s p -> s +. (p.p_factor *. p.p_factor)) 0. points
  in
  let slope = if den = 0. then 0. else num /. den in
  let linearity =
    List.fold_left
      (fun m p -> Float.max m (abs_float (p.p_speedup -. (slope *. p.p_factor))))
      0. points
  in
  let delta_full =
    match List.find_opt (fun p -> p.p_factor = 1.0) points with
    | Some p -> base.b_cycles -. p.p_cycles
    | None -> slope *. base.b_cycles
  in
  {
    k_target = t;
    k_points = points;
    k_local_cycles = local;
    k_local_share = local /. base.b_cycles;
    k_slope = slope;
    k_linearity = linearity;
    k_delta_full = delta_full;
  }

let rank_curves curves =
  List.sort
    (fun a b ->
      match compare b.k_slope a.k_slope with
      | 0 -> compare (target_name a.k_target) (target_name b.k_target)
      | n -> n)
    curves

let aggregate (reports : wreport list) =
  (* per-target (slope, 1-based rank) pairs over the workloads that
     planned it *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun wr ->
      List.iteri
        (fun i k ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt tbl k.k_target)
          in
          Hashtbl.replace tbl k.k_target ((k.k_slope, i + 1) :: prev))
        wr.c_curves)
    reports;
  Hashtbl.fold
    (fun t entries acc ->
      let n = List.length entries in
      let mean =
        List.fold_left (fun s (sl, _) -> s +. sl) 0. entries /. float_of_int n
      in
      {
        g_target = t;
        g_workloads = n;
        g_mean_slope = mean;
        g_rank_best = List.fold_left (fun m (_, r) -> min m r) max_int entries;
        g_rank_worst = List.fold_left (fun m (_, r) -> max m r) 0 entries;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b ->
         match compare b.g_mean_slope a.g_mean_slope with
         | 0 -> compare (target_name a.g_target) (target_name b.g_target)
         | n -> n)

let run ?targets ?(factors = default_factors) ?(top_funcs = 3)
    ?(split_funcs = 0) ?(big_inputs = false) ?progress ~workloads backend =
  let t0 = Unix.gettimeofday () in
  if factors = [] then invalid_arg "Causal.run: empty factor list";
  List.iter
    (fun f ->
      if not (f > 0. && f <= 1.) then
        invalid_arg (Fmt.str "Causal.run: factor %g outside (0, 1]" f))
    factors;
  let factors = List.sort_uniq compare factors in
  let ws = List.map Suite.find_exn workloads in
  let ws = if big_inputs then List.map Workload.scale ws else ws in
  (* One instrumented baseline per workload and nothing else: its reducer
     plans the workload's targets from the run's own profile and bins,
     then reads the whole (target x factor) grid off the run's accounting
     (an experiment only scales charges nothing in the simulation reads,
     DESIGN.md §14). *)
  let profile (w : Workload.t) (s : Matrix.sim) =
    let base = baseline s in
    let targets =
      match targets with
      | Some ts -> ts
      | None ->
          plan ~split_funcs ~func_bins:base.b_func_bins ~top_funcs
            ~prof_by_func:base.b_prof_by_func ~categories:base.b_categories ()
    in
    let curves =
      List.map
        (fun t -> curve_of_points ~base t (List.map (point ~base s t) factors))
        targets
    in
    {
      c_workload = w.Workload.short;
      c_base_cycles = base.b_cycles;
      c_base_categories = base.b_categories;
      c_obs = base.b_obs;
      c_curves = rank_curves curves;
      c_output_ok = base.b_output_ok;
    }
  in
  let reports, sims =
    Matrix.run ?progress backend
      (List.map
         (fun w ->
           {
             (Matrix.cell w (Experiments.config_for w Config.ILP_CS) (profile w)) with
             Matrix.traced = true;
             period = Experiments.sample_period;
           })
         ws)
  in
  let reports = Array.to_list reports in
  {
    r_workloads = workloads;
    r_factors = factors;
    r_reports = reports;
    r_aggregate = aggregate reports;
    r_grid =
      {
        gr_cells =
          List.fold_left
            (fun n wr -> n + (List.length wr.c_curves * List.length factors))
            0 reports;
        gr_sims = sims;
      };
    r_wall_s = Unix.gettimeofday () -. t0;
  }

let curve_of (wr : wreport) t =
  List.find_opt (fun k -> k.k_target = t) wr.c_curves

let mismatches (r : report) =
  List.concat_map
    (fun wr ->
      List.concat_map
        (fun k ->
          List.filter_map
            (fun p ->
              if p.p_output_ok then None
              else Some (wr.c_workload, k.k_target, p.p_factor))
            k.k_points)
        wr.c_curves)
    r.r_reports

(* --- Factor-1.0 local exactness ------------------------------------------ *)

type local_row = {
  lk_workload : string;
  lk_target : target;
  lk_causal : float;
  lk_local : float;
  lk_ok : bool;
}

let local_tolerance a b =
  abs_float (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (abs_float a) (abs_float b))

(* The factor-1.0 invariant, target-kind-agnostic: scaling a target's
   charges to zero removes exactly the cycles the baseline charged to it
   (accounting is observation-only, so nothing else can move).  The
   independent side is the baseline's own bins, read from a plain run
   that carried no experiment. *)
let check_local_exactness (r : report) =
  List.concat_map
    (fun wr ->
      List.filter_map
        (fun k ->
          match List.find_opt (fun p -> p.p_factor = 1.0) k.k_points with
          | None -> None
          | Some p ->
              let causal = wr.c_base_cycles -. p.p_cycles in
              Some
                {
                  lk_workload = wr.c_workload;
                  lk_target = k.k_target;
                  lk_causal = causal;
                  lk_local = k.k_local_cycles;
                  lk_ok = local_tolerance causal k.k_local_cycles;
                })
        wr.c_curves)
    r.r_reports

(* --- JSON export --------------------------------------------------------- *)

let target_to_json t =
  Json.Obj
    [
      ("name", Json.Str (target_name t));
      ( "kind",
        Json.Str
          (match t with
          | Target_func _ -> "func"
          | Target_category _ -> "category"
          | Target_func_category _ -> "func-category") );
    ]

let categories_to_json (a : float array) =
  Json.Obj
    (List.map
       (fun c -> (Acc.name c, Json.Float a.(Acc.index c)))
       Acc.all_categories)

let curve_to_json (k : curve) =
  Json.Obj
    [
      ("target", target_to_json k.k_target);
      ("local_cycles", Json.Float k.k_local_cycles);
      ("local_share", Json.Float k.k_local_share);
      ("slope", Json.Float k.k_slope);
      ("linearity", Json.Float k.k_linearity);
      ("delta_full", Json.Float k.k_delta_full);
      ( "points",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("factor", Json.Float p.p_factor);
                   ("cycles", Json.Float p.p_cycles);
                   ("program_speedup", Json.Float p.p_speedup);
                   ("output_matches", Json.Bool p.p_output_ok);
                 ])
             k.k_points) );
    ]

let grid_to_json gr =
  Json.Obj
    [
      ("cells", Json.Int gr.gr_cells);
      ("sims", Json.Int gr.gr_sims);
      ( "cells_per_sim",
        Json.Float
          (if gr.gr_sims = 0 then 0.
           else float_of_int gr.gr_cells /. float_of_int gr.gr_sims) );
      ("sims_saved", Json.Int (gr.gr_cells - gr.gr_sims));
    ]

let to_json (r : report) =
  Json.Obj
    [
      ("causal", Json.Str "virtual-speedup");
      ("sample_period", Json.Int Experiments.sample_period);
      ("grid", grid_to_json r.r_grid);
      ("workloads", Json.List (List.map (fun w -> Json.Str w) r.r_workloads));
      ("factors", Json.List (List.map (fun f -> Json.Float f) r.r_factors));
      ( "workload_reports",
        Json.List
          (List.map
             (fun wr ->
               Json.Obj
                 [
                   ("workload", Json.Str wr.c_workload);
                   ("base_cycles", Json.Float wr.c_base_cycles);
                   ("output_matches", Json.Bool wr.c_output_ok);
                   ("categories", categories_to_json wr.c_base_categories);
                   ("obs", wr.c_obs);
                   ("curves", Json.List (List.map curve_to_json wr.c_curves));
                 ])
             r.r_reports) );
      ( "aggregate",
        Json.List
          (List.map
             (fun g ->
               Json.Obj
                 [
                   ("target", target_to_json g.g_target);
                   ("workloads", Json.Int g.g_workloads);
                   ("mean_slope", Json.Float g.g_mean_slope);
                   ("rank_best", Json.Int g.g_rank_best);
                   ("rank_worst", Json.Int g.g_rank_worst);
                 ])
             r.r_aggregate) );
      ("total_wall_s", Json.Float r.r_wall_s);
    ]

(* --- Text report --------------------------------------------------------- *)

(* Tornado bars scaled to the workload's best slope; local share printed
   beside the slope so the COZ argument is visible wherever the two
   columns disagree (big share, flat slope — or the reverse). *)
let print_report ppf (r : report) =
  Fmt.pf ppf "Causal profile (virtual speedups) vs itanium2 x ILP-CS@.";
  Fmt.pf ppf "factors:%a@."
    (fun ppf -> List.iter (fun f -> Fmt.pf ppf " %g" f))
    r.r_factors;
  (let gr = r.r_grid in
   Fmt.pf ppf "grid: %d cells from %d simulations (%.1f cells/sim, %d sims saved)@."
     gr.gr_cells gr.gr_sims
     (if gr.gr_sims = 0 then 0.
      else float_of_int gr.gr_cells /. float_of_int gr.gr_sims)
     (gr.gr_cells - gr.gr_sims));
  List.iter
    (fun wr ->
      Fmt.pf ppf "@.%s  (baseline %.0f cycles%s)@." wr.c_workload
        wr.c_base_cycles
        (if wr.c_output_ok then "" else ", OUTPUT MISMATCH");
      Fmt.pf ppf "  %4s  %-20s %7s %7s %9s %12s@." "rank" "target" "local%"
        "slope" "linearity" "dcycles@1.0";
      let max_slope =
        List.fold_left (fun m k -> Float.max m k.k_slope) 1e-12 wr.c_curves
      in
      List.iteri
        (fun i k ->
          let bar =
            let n =
              int_of_float (Float.round (20. *. Float.max 0. k.k_slope /. max_slope))
            in
            String.make n '#'
          in
          Fmt.pf ppf "  %4d  %-20s %6.1f%% %7.4f %9.4f %12.0f  %s@." (i + 1)
            (target_name k.k_target)
            (100. *. k.k_local_share)
            k.k_slope k.k_linearity k.k_delta_full bar)
        wr.c_curves)
    r.r_reports;
  Fmt.pf ppf "@.Across %d workloads (mean causal slope, rank range):@."
    (List.length r.r_workloads);
  List.iter
    (fun g ->
      Fmt.pf ppf "  %-20s %7.4f  rank %d-%d  (%d workloads)@."
        (target_name g.g_target) g.g_mean_slope g.g_rank_best g.g_rank_worst
        g.g_workloads)
    r.r_aggregate
