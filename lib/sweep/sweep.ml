(* Machine-sensitivity sweeps: a declarative matrix of machine-description
   variants x compiler ablations, run on the domain pool.  See sweep.mli for
   the contract; DESIGN.md "Machine descriptions & sweeps" for the design
   discussion (why the perfect-* variants are accounting experiments, and
   why geometry variants recompile under their description). *)

open Epic_core
open Epic_workloads
module Md = Epic_mach.Machine_desc
module Acc = Epic_sim.Accounting
module Json = Epic_obs.Json

type expect = [ `Faster | `Slower | `Either ]

type variant = {
  v_name : string;
  v_desc : Md.t;
  v_isolates : string;
  v_targets : Acc.category list;
  v_suppresses : Acc.category option;
  v_expect : expect;
}

type ablation = Config.ablation = {
  a_name : string;
  a_isolates : string;
  a_tweak : Config.t -> Config.t;
}

let i2 = Md.itanium2

let baseline_variant =
  {
    v_name = "itanium2";
    v_desc = i2;
    v_isolates = "the machine the paper measured";
    v_targets = [];
    v_suppresses = None;
    v_expect = `Either;
  }

(* A perfect component is an idealization, not a machine: the itanium2
   simulation with one factor-1.0 category experiment, so the cache/
   predictor state and the clock evolve exactly as in the baseline and
   only the charge to the category is zeroed — the delta is confined to
   exactly that category, and the total is the baseline minus it (never
   slower, by construction). *)
let suppression name cat ~isolates =
  {
    v_name = name;
    v_desc = { i2 with Md.name = name };
    v_isolates = isolates;
    v_targets = [ cat ];
    v_suppresses = Some cat;
    v_expect = `Faster;
  }

(* One knob per variant.  The geometry variants change the simulated
   machine for real and recompile under it. *)
let variants =
  [
    suppression "perfect-icache" Acc.Front_end
      ~isolates:"front-end stall share of ILP code growth (Fig. 5/9)";
    suppression "perfect-predictor" Acc.Br_mispredict
      ~isolates:"mispredict flushes region formation removes (Fig. 7)";
    {
      v_name = "half-l2";
      v_desc =
        {
          i2 with
          Md.name = "half-l2";
          Md.l2 = { i2.Md.l2 with Md.size = i2.Md.l2.Md.size / 2 };
        };
      v_isolates = "cache-resident scaling of the mini workloads (Sec. 3.1)";
      v_targets = [ Acc.Int_load_bubble; Acc.Float_scoreboard; Acc.Front_end ];
      v_suppresses = None;
      v_expect = `Slower;
    };
    {
      v_name = "no-rse-backing";
      v_desc = { i2 with Md.name = "no-rse-backing"; Md.rse_physical = 16 };
      v_isolates = "register stack engine cost of deep call chains (Fig. 5)";
      v_targets = [ Acc.Rse ];
      v_suppresses = None;
      v_expect = `Slower;
    };
    {
      v_name = "2x-mem-latency";
      v_desc = { i2 with Md.name = "2x-mem-latency"; Md.mem_latency = 2 * i2.Md.mem_latency };
      v_isolates = "memory-bound limit where ILP gains vanish (mcf, Sec. 4.2)";
      v_targets = [ Acc.Int_load_bubble; Acc.Float_scoreboard; Acc.Front_end ];
      v_suppresses = None;
      v_expect = `Slower;
    };
    {
      v_name = "tiny-dtlb";
      v_desc = { i2 with Md.name = "tiny-dtlb"; Md.dtlb_entries = 4 };
      v_isolates = "DTLB walk share of the micropipeline stalls (Sec. 4.4)";
      v_targets = [ Acc.Micropipe ];
      v_suppresses = None;
      v_expect = `Slower;
    };
  ]

let ablations = Config.ablations
let baseline_ablation = List.hd ablations

let find_variant name =
  List.find_opt (fun v -> v.v_name = name) (baseline_variant :: variants)

let find_ablation name = List.find_opt (fun a -> a.a_name = name) ablations

type cell = {
  c_workload : string;
  c_variant : string;
  c_ablation : string;
  c_cycles : float;
  c_categories : float array;
  c_output_ok : bool;
  c_fused : bool;
      (* delivered by a fused experiment on its ablation's itanium2
         simulation instead of a simulation of its own *)
  c_obs : Json.t;
}

type row = {
  t_variant : string;
  t_ablation : string;
  t_geomean_ratio : float;
}

type report = {
  r_workloads : string list;
  r_variants : variant list;
  r_ablations : ablation list;
  r_baseline : cell list;
  r_cells : cell list;
  r_tornado : row list;
  r_fused_cells : int; (* cells that rode an itanium2 sim *)
  r_sims : int; (* simulations run *)
  r_wall_s : float;
}

(* One matrix cell, [v] x [a], on the ablation's ILP-CS configuration
   under the variant's description.  A suppression variant is the
   itanium2 run carrying a factor-1.0 experiment on its category, so the
   planner merges it into the simulation of its (workload, ablation)
   itanium2 cell, which runs even when that cell is not itself in the
   matrix.  Every simulation carries the trace and PC-sampling
   instruments — both observation-only — whose summaries land in [c_obs],
   so sensitivity and causal reports share one observability block. *)
let cell ?sampling (w : Workload.t) (v : variant) (a : ablation) =
  let reduce (s : Matrix.sim) =
    let totals = s.Matrix.accounts.(0) in
    {
      c_workload = w.Workload.short;
      c_variant = v.v_name;
      c_ablation = a.a_name;
      c_cycles = Array.fold_left ( +. ) 0. totals;
      c_categories = totals;
      c_output_ok = s.Matrix.output_ok;
      c_fused = v.v_suppresses <> None;
      c_obs = Export.obs_to_json ?trace:s.Matrix.trace ?profile:s.Matrix.profile ();
    }
  in
  let c =
    {
      (Matrix.cell w (a.a_tweak (Experiments.config_for w Config.ILP_CS)) reduce) with
      Matrix.plan =
        (match sampling with Some p -> Matrix.Sampled p | None -> Matrix.Full);
      traced = true;
      period = Experiments.sample_period;
    }
  in
  match v.v_suppresses with
  | None -> { c with Matrix.desc = Some v.v_desc }
  | Some cat ->
      {
        c with
        Matrix.desc = Some baseline_variant.v_desc;
        experiments = [ { Acc.target = Acc.Target_category cat; speedup = 1.0 } ];
      }

let run ?(variants = variants) ?(ablations = [ baseline_ablation ]) ?sampling
    ?(big_inputs = false) ?progress ~workloads backend =
  let t0 = Unix.gettimeofday () in
  let ws = List.map Suite.find_exn workloads in
  let ws = if big_inputs then List.map Workload.scale ws else ws in
  (* the per-workload baseline cell, then the matrix, workload-major *)
  let non_baseline (v : variant) (a : ablation) =
    not (v.v_name = baseline_variant.v_name && a.a_name = baseline_ablation.a_name)
  in
  let specs =
    List.concat_map
      (fun w ->
        (w, baseline_variant, baseline_ablation)
        :: List.concat_map
             (fun v ->
               List.filter_map
                 (fun a -> if non_baseline v a then Some (w, v, a) else None)
                 ablations)
             variants)
      ws
  in
  let cells, sims =
    Matrix.run ?progress backend
      (List.map (fun (w, v, a) -> cell ?sampling w v a) specs)
  in
  let all = Array.to_list cells in
  let is_baseline c =
    c.c_variant = baseline_variant.v_name
    && c.c_ablation = baseline_ablation.a_name
  in
  let baseline = List.filter is_baseline all in
  let rest = List.filter (fun c -> not (is_baseline c)) all in
  let base_of w =
    List.find (fun c -> c.c_workload = w) baseline
  in
  (* Tornado: geomean over workloads of the cycle ratio of each
     (variant, ablation) combo, by descending distance from 1. *)
  let combos =
    List.sort_uniq compare
      (List.map (fun c -> (c.c_variant, c.c_ablation)) rest)
  in
  let tornado =
    List.map
      (fun (v, a) ->
        let ratios =
          List.filter_map
            (fun c ->
              if c.c_variant = v && c.c_ablation = a then
                Some (c.c_cycles /. (base_of c.c_workload).c_cycles)
              else None)
            rest
        in
        { t_variant = v; t_ablation = a; t_geomean_ratio = Metrics.geomean ratios })
      combos
    |> List.sort (fun a b ->
           compare
             (abs_float (log b.t_geomean_ratio))
             (abs_float (log a.t_geomean_ratio)))
  in
  {
    r_workloads = workloads;
    r_variants = variants;
    r_ablations = ablations;
    r_baseline = baseline;
    r_cells = rest;
    r_tornado = tornado;
    r_fused_cells = List.length (List.filter (fun c -> c.c_fused) all);
    r_sims = sims;
    r_wall_s = Unix.gettimeofday () -. t0;
  }

let baseline_of (r : report) w =
  List.find (fun c -> c.c_workload = w) r.r_baseline

let deltas (r : report) (c : cell) =
  let b = baseline_of r c.c_workload in
  Array.init (Array.length c.c_categories) (fun i ->
      c.c_categories.(i) -. b.c_categories.(i))

let mismatches (r : report) =
  List.filter (fun c -> not c.c_output_ok) (r.r_baseline @ r.r_cells)

(* --- JSON export --------------------------------------------------------- *)

let geom_to_json (g : Md.cache_geom) =
  Json.Obj
    [
      ("size", Json.Int g.Md.size);
      ("line", Json.Int g.Md.line);
      ("assoc", Json.Int g.Md.assoc);
    ]

let desc_to_json (d : Md.t) =
  Json.Obj
    [
      ("name", Json.Str d.Md.name);
      ("bundles_per_cycle", Json.Int d.Md.bundles_per_cycle);
      ("issue_width", Json.Int d.Md.issue_width);
      ( "slots",
        Json.Obj
          [
            ("m", Json.Int d.Md.m_slots);
            ("i", Json.Int d.Md.i_slots);
            ("f", Json.Int d.Md.f_slots);
            ("b", Json.Int d.Md.b_slots);
            ("ld", Json.Int d.Md.ld_pipes);
            ("st", Json.Int d.Md.st_pipes);
          ] );
      ( "latencies",
        Json.Obj
          [
            ("alu", Json.Int d.Md.lat_alu);
            ("mul", Json.Int d.Md.lat_mul);
            ("div", Json.Int d.Md.lat_div);
            ("fp", Json.Int d.Md.lat_fp);
            ("fdiv", Json.Int d.Md.lat_fdiv);
            ("load", Json.Int d.Md.lat_load);
            ("float_load", Json.Int d.Md.float_load_latency);
            ("l2", Json.Int d.Md.l2_latency);
            ("l3", Json.Int d.Md.l3_latency);
            ("mem", Json.Int d.Md.mem_latency);
          ] );
      ("l1i", geom_to_json d.Md.l1i);
      ("l1d", geom_to_json d.Md.l1d);
      ("l2", geom_to_json d.Md.l2);
      ("l3", geom_to_json d.Md.l3);
      ( "dtlb",
        Json.Obj
          [
            ("entries", Json.Int d.Md.dtlb_entries);
            ("vhpt_walk_cycles", Json.Int d.Md.vhpt_walk_cycles);
            ("wild_walk_cycles", Json.Int d.Md.wild_walk_cycles);
            ("nat_page_cycles", Json.Int d.Md.nat_page_cycles);
            ("page_fault_cycles", Json.Int d.Md.page_fault_cycles);
          ] );
      ( "predictor",
        Json.Obj
          [
            ("bits", Json.Int d.Md.bp_bits);
            ("history_bits", Json.Int d.Md.bp_history_bits);
            ("mispredict_penalty", Json.Int d.Md.branch_mispredict_penalty);
          ] );
      ( "rse",
        Json.Obj
          [
            ("physical", Json.Int d.Md.rse_physical);
            ("spill_cost_per_reg", Json.Int d.Md.rse_spill_cost_per_reg);
          ] );
      ( "overheads",
        Json.Obj
          [
            ("call", Json.Int d.Md.call_overhead);
            ("return", Json.Int d.Md.return_overhead);
            ("chk_recovery", Json.Int d.Md.chk_recovery_penalty);
          ] );
    ]

let categories_to_json (a : float array) =
  Json.Obj
    (List.map
       (fun c -> (Acc.name c, Json.Float a.(Acc.index c)))
       Acc.all_categories)

let cell_to_json (r : report) (c : cell) =
  let b = baseline_of r c.c_workload in
  Json.Obj
    [
      ("workload", Json.Str c.c_workload);
      ("variant", Json.Str c.c_variant);
      ("ablation", Json.Str c.c_ablation);
      ("cycles", Json.Float c.c_cycles);
      ("cycle_ratio", Json.Float (c.c_cycles /. b.c_cycles));
      ("categories", categories_to_json c.c_categories);
      ("deltas", categories_to_json (deltas r c));
      ("output_matches", Json.Bool c.c_output_ok);
      ("fused", Json.Bool c.c_fused);
      ("obs", c.c_obs);
    ]

let expect_name = function
  | `Faster -> "faster"
  | `Slower -> "slower"
  | `Either -> "either"

let to_json (r : report) =
  Json.Obj
    [
      ("sweep", Json.Str "machine-sensitivity");
      ( "baseline",
        Json.Obj
          [
            ("variant", Json.Str baseline_variant.v_name);
            ("ablation", Json.Str baseline_ablation.a_name);
          ] );
      ("workloads", Json.List (List.map (fun w -> Json.Str w) r.r_workloads));
      ( "variants",
        Json.List
          (List.map
             (fun v ->
               Json.Obj
                 [
                   ("name", Json.Str v.v_name);
                   ("isolates", Json.Str v.v_isolates);
                   ( "targets",
                     Json.List
                       (List.map (fun c -> Json.Str (Acc.name c)) v.v_targets)
                   );
                   ("expect", Json.Str (expect_name v.v_expect));
                   ( "suppresses",
                     match v.v_suppresses with
                     | Some c -> Json.Str (Acc.name c)
                     | None -> Json.Null );
                   ("desc", desc_to_json v.v_desc);
                 ])
             r.r_variants) );
      ( "ablations",
        Json.List
          (List.map
             (fun a ->
               Json.Obj
                 [
                   ("name", Json.Str a.a_name);
                   ("isolates", Json.Str a.a_isolates);
                 ])
             r.r_ablations) );
      ( "cells",
        Json.List
          (List.map
             (fun c ->
               (* the baseline cells lead their workload group, then the
                  matrix cells in execution order *)
               cell_to_json r c)
             (List.concat_map
                (fun w ->
                  baseline_of r w
                  :: List.filter (fun c -> c.c_workload = w) r.r_cells)
                r.r_workloads)) );
      ( "tornado",
        Json.List
          (List.map
             (fun t ->
               Json.Obj
                 [
                   ("variant", Json.Str t.t_variant);
                   ("ablation", Json.Str t.t_ablation);
                   ("geomean_cycle_ratio", Json.Float t.t_geomean_ratio);
                 ])
             r.r_tornado) );
      ( "fusion",
        Json.Obj
          [
            ("fused_cells", Json.Int r.r_fused_cells);
            ( "sims_saved",
              Json.Int
                (List.length r.r_baseline + List.length r.r_cells - r.r_sims)
            );
          ] );
      ("total_wall_s", Json.Float r.r_wall_s);
    ]

(* --- Text report --------------------------------------------------------- *)

let print_report ppf (r : report) =
  Fmt.pf ppf "Machine sensitivity vs %s x %s@." baseline_variant.v_name
    baseline_ablation.a_name;
  List.iter
    (fun w ->
      let b = baseline_of r w in
      Fmt.pf ppf "@.%s  (baseline %.0f cycles%s)@." w b.c_cycles
        (if b.c_output_ok then "" else ", OUTPUT MISMATCH");
      Fmt.pf ppf "  %-34s %10s %7s  %s@." "variant x ablation" "cycles"
        "ratio" "dominant deltas";
      List.iter
        (fun c ->
          if c.c_workload = w then begin
            let ds = deltas r c in
            let named =
              List.filter_map
                (fun cat ->
                  let d = ds.(Acc.index cat) in
                  if d <> 0. then Some (Acc.name cat, d) else None)
                Acc.all_categories
              |> List.sort (fun (_, a) (_, b) ->
                     compare (abs_float b) (abs_float a))
            in
            let top =
              match named with
              | [] -> "(none)"
              | l ->
                  String.concat ", "
                    (List.map
                       (fun (n, d) -> Fmt.str "%s %+.0f" n d)
                       (List.filteri (fun i _ -> i < 3) l))
            in
            Fmt.pf ppf "  %-34s %10.0f %7.3f  %s%s%s@."
              (c.c_variant ^ " x " ^ c.c_ablation)
              c.c_cycles
              (c.c_cycles /. b.c_cycles)
              top
              (if c.c_fused then "  [fused]" else "")
              (if c.c_output_ok then "" else "  OUTPUT MISMATCH")
          end)
        r.r_cells)
    r.r_workloads;
  Fmt.pf ppf "@.Tornado (geomean cycle ratio over %d workloads):@."
    (List.length r.r_workloads);
  List.iter
    (fun t ->
      Fmt.pf ppf "  %-34s %7.3f@."
        (t.t_variant ^ " x " ^ t.t_ablation)
        t.t_geomean_ratio)
    r.r_tornado
