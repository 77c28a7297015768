(* Experiment harness: the twelve-workload suite under the four
   configurations and the Section 4 experiments, each a Matrix cell list,
   and every table and figure of the paper's evaluation section derived
   from them.  One suite run feeds all the tables (like one SPEC run
   feeding many counters). *)

open Epic_workloads

type suite_result = {
  runs : (string * Config.level * Metrics.run) list; (* (workload, level, run) *)
  index : (string * Config.level, Metrics.run) Hashtbl.t;
      (* built at suite construction; every table lookup goes through it
         instead of rescanning [runs] *)
}

let index_runs runs =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (w, l, r) -> Hashtbl.replace tbl (w, l) r) runs;
  tbl

let config_for (w : Workload.t) (level : Config.level) =
  let base = Config.make level in
  { base with Config.pointer_analysis = w.Workload.pointer_analysis }

(* Sampling period for the suite's PC profiler (the Pfmon address-sampling
   stand-in feeding Figure 10).  Prime, to avoid aliasing with periodic
   code; small enough that per-function shares converge within 5% of the
   exact accounting on every workload. *)
let sample_period = 97

(* One suite cell: the workload at [level] on its reference input, with
   the PC profiler attached; the reducer builds the run's metrics with the
   host block of its simulation. *)
let suite_cell ?desc (w : Workload.t) (level : Config.level) =
  let reduce (s : Matrix.sim) =
    if not s.Matrix.output_ok then
      Fmt.epr "WARNING: %s/%s output mismatch@." w.Workload.short
        (Config.name s.Matrix.compiled.Driver.config);
    Metrics.of_machine ~workload:w.Workload.short ?profile:s.Matrix.profile
      ~host:s.Matrix.host s.Matrix.compiled s.Matrix.machine
      ~output_matches:s.Matrix.output_ok
  in
  { (Matrix.cell w (config_for w level) reduce) with desc; period = sample_period }

let run_one ?desc w level =
  (fst (Matrix.run (Matrix.direct ~jobs:1) [ suite_cell ?desc w level ])).(0)

let levels = [ Config.Gcc_like; Config.O_NS; Config.ILP_NS; Config.ILP_CS ]

(* The suite is 12 workloads x 4 levels = 48 cells.  Determinism: each
   compile starts from source, which resets the domain-local
   instruction-id counter, so the ids — and with them branch-predictor
   indexing and sample attribution — are identical whichever domain runs
   the cell, and [runs] is ordered exactly as the sequential walk. *)
let run_suite ?(workloads = Suite.all) ?progress backend =
  let pairs =
    List.concat_map (fun w -> List.map (fun level -> (w, level)) levels) workloads
  in
  let results, _ =
    Matrix.run ?progress backend
      (List.map (fun (w, level) -> suite_cell w level) pairs)
  in
  let runs =
    List.mapi (fun i ((w : Workload.t), level) -> (w.Workload.short, level, results.(i))) pairs
  in
  { runs; index = index_runs runs }

(* Runs whose simulated output diverged from the reference interpreter.
   [suite_cell]'s reducer warns as it happens; this is the machine-checkable record the
   bench harness and CI gate on. *)
let mismatches (s : suite_result) =
  List.filter_map
    (fun (w, l, (r : Metrics.run)) ->
      if r.Metrics.output_matches then None else Some (w, l))
    s.runs

let get (s : suite_result) (workload : string) (level : Config.level) =
  Hashtbl.find_opt s.index (workload, level)

let get_exn s w l =
  match get s w l with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "no run for %s/%s" w (Config.level_name l))

let workload_names (s : suite_result) =
  List.sort_uniq compare (List.map (fun (w, _, _) -> w) s.runs)
  |> fun names ->
  (* keep SPEC order *)
  List.filter (fun n -> List.mem n names) Suite.names

(* --- Table 1: estimated SPECint ratios --------------------------------- *)

(* The paper's ratios are SPEC reference-machine ratios; we normalize with a
   single global constant so that the GCC geomean lands at the paper's 430,
   keeping all relative (per-benchmark and per-config) variation ours. *)
type table1_row = {
  bench : string;
  ratios : (Config.level * float) list;
}

let table1 (s : suite_result) =
  let gcc_cycles =
    List.map (fun w -> (get_exn s w Config.Gcc_like).Metrics.cycles) (workload_names s)
  in
  let scale = 430. *. Metrics.geomean gcc_cycles in
  let rows =
    List.map
      (fun w ->
        {
          bench = w;
          ratios =
            List.map
              (fun l -> (l, scale /. (get_exn s w l).Metrics.cycles))
              levels;
        })
      (workload_names s)
  in
  let geo l =
    Metrics.geomean (List.map (fun r -> List.assoc l r.ratios) rows)
  in
  (rows, List.map (fun l -> (l, geo l)) levels)

(* --- Figure 2: planned vs exploited speedup over O-NS ------------------- *)

type fig2_row = {
  f2_bench : string;
  f2_level : Config.level;
  planned_speedup : float;
  exploited_speedup : float;
}

let fig2 (s : suite_result) =
  List.concat_map
    (fun w ->
      let base = get_exn s w Config.O_NS in
      List.map
        (fun l ->
          let r = get_exn s w l in
          {
            f2_bench = w;
            f2_level = l;
            planned_speedup = base.Metrics.planned /. r.Metrics.planned;
            exploited_speedup = base.Metrics.cycles /. r.Metrics.cycles;
          })
        [ Config.ILP_NS; Config.ILP_CS ])
    (workload_names s)

let fig2_averages (s : suite_result) =
  let rows = fig2 s in
  let avg lvl f =
    Metrics.geomean
      (List.filter_map (fun r -> if r.f2_level = lvl then Some (f r) else None) rows)
  in
  ( avg Config.ILP_CS (fun r -> r.planned_speedup),
    avg Config.ILP_CS (fun r -> r.exploited_speedup) )

(* --- Figure 5: cycle accounting normalized to O-NS ---------------------- *)

let fig5 (s : suite_result) =
  List.map
    (fun w ->
      let base = (get_exn s w Config.O_NS).Metrics.cycles in
      ( w,
        List.map
          (fun l ->
            let r = get_exn s w l in
            (l, Array.map (fun c -> c /. base) r.Metrics.categories))
          [ Config.O_NS; Config.ILP_NS; Config.ILP_CS ] ))
    (workload_names s)

(* --- Figure 6: operation accounting and IPC ----------------------------- *)

type fig6_row = {
  f6_bench : string;
  f6_level : Config.level;
  useful : float; (* normalized to O-NS total fetched ops *)
  squashed : float;
  nops : float;
  kernel : float;
  ipc_planned : float;
  ipc_achieved : float;
}

let fig6 (s : suite_result) =
  List.concat_map
    (fun w ->
      let b = get_exn s w Config.O_NS in
      let base =
        float_of_int
          (b.Metrics.useful_ops + b.Metrics.squashed_ops + b.Metrics.nop_ops)
      in
      List.map
        (fun l ->
          let r = get_exn s w l in
          {
            f6_bench = w;
            f6_level = l;
            useful = float_of_int r.Metrics.useful_ops /. base;
            squashed = float_of_int r.Metrics.squashed_ops /. base;
            nops = float_of_int r.Metrics.nop_ops /. base;
            kernel = float_of_int r.Metrics.kernel_ops /. base;
            ipc_planned = Metrics.planned_ipc r;
            ipc_achieved = Metrics.achieved_ipc r;
          })
        [ Config.O_NS; Config.ILP_NS; Config.ILP_CS ])
    (workload_names s)

(* --- Figure 7: branches and prediction ----------------------------------- *)

type fig7_row = {
  f7_bench : string;
  f7_level : Config.level;
  predictions_norm : float; (* vs O-NS *)
  mispredictions_norm : float;
  correct_rate : float;
}

let fig7 (s : suite_result) =
  List.concat_map
    (fun w ->
      let b = get_exn s w Config.O_NS in
      List.map
        (fun l ->
          let r = get_exn s w l in
          {
            f7_bench = w;
            f7_level = l;
            predictions_norm =
              float_of_int r.Metrics.predictions /. float_of_int (max 1 b.Metrics.predictions);
            mispredictions_norm =
              float_of_int r.Metrics.mispredictions
              /. float_of_int (max 1 b.Metrics.mispredictions);
            correct_rate = Metrics.branch_prediction_rate r;
          })
        [ Config.O_NS; Config.ILP_NS; Config.ILP_CS ])
    (workload_names s)

(* average dynamic branch reduction, ILP-CS vs O-NS (paper: 27%) *)
let branch_reduction (s : suite_result) =
  let ratios =
    List.map
      (fun w ->
        let b = get_exn s w Config.O_NS and r = get_exn s w Config.ILP_CS in
        float_of_int r.Metrics.branches /. float_of_int (max 1 b.Metrics.branches))
      (workload_names s)
  in
  1.0 -. Metrics.geomean ratios

(* --- Figure 8: data-cache stall cycles vs O-NS --------------------------- *)

let fig8 (s : suite_result) =
  List.map
    (fun w ->
      let base =
        max 1.0 (Metrics.category (get_exn s w Config.O_NS) Epic_sim.Accounting.Int_load_bubble)
      in
      ( w,
        List.map
          (fun l ->
            ( l,
              Metrics.category (get_exn s w l) Epic_sim.Accounting.Int_load_bubble
              /. base ))
          [ Config.ILP_NS; Config.ILP_CS ] ))
    (workload_names s)

(* --- Figure 10: per-function time (vortex by default) -------------------- *)

type fig10_row = {
  func : string;
  base_share : float; (* fraction of O-NS cycles *)
  ratio_ns : float; (* ILP-NS time / O-NS time for this function *)
  ratio_cs : float;
}

(* Per-function attribution comes from the PC-sampling profiler when the
   runs carried one (the suite always samples — this is the Pfmon
   address-sampling methodology behind the paper's Figure 10), falling
   back to the exact accounting bins for unsampled runs. *)
let fig10 ?(workload = "vortex") (s : suite_result) =
  let base = get_exn s workload Config.O_NS in
  let ns = get_exn s workload Config.ILP_NS in
  let cs = get_exn s workload Config.ILP_CS in
  let base_total = Metrics.total_cycles_est base in
  Metrics.profiled_functions base
  |> List.map (fun f ->
         let bt = Metrics.func_cycles_est base f in
         {
           func = f;
           base_share = bt /. base_total;
           ratio_ns = (if bt > 0. then Metrics.func_cycles_est ns f /. bt else 1.);
           ratio_cs = (if bt > 0. then Metrics.func_cycles_est cs f /. bt else 1.);
         })
  |> List.filter (fun r -> r.base_share > 0.002)
  |> List.sort (fun a b -> compare b.base_share a.base_share)

(* --- Section 3 aggregate statistics -------------------------------------- *)

type structural_stats = {
  branch_reduction_pct : float; (* paper: 27% *)
  tail_dup_growth_pct : float; (* paper: 21% *)
  peel_growth_pct : float; (* paper: 2% *)
  front_end_stall_reduction_pct : float; (* paper: 15% *)
  l1i_access_reduction_pct : float; (* paper: ~10% *)
  avg_planned_ipc_cs : float; (* paper: 2.63 *)
  avg_achieved_ipc_cs : float; (* paper: 1.23 *)
}

let structural_stats (s : suite_result) =
  let ws = workload_names s in
  let avg f = Metrics.geomean (List.map f ws) in
  {
    branch_reduction_pct = 100. *. branch_reduction s;
    tail_dup_growth_pct =
      100.
      *. Metrics.geomean
           (List.map
              (fun w ->
                let r = get_exn s w Config.ILP_CS in
                1.
                +. float_of_int r.Metrics.stats.Driver.tail_dup_instrs
                   /. float_of_int (max 1 r.Metrics.stats.Driver.instrs_after_classical))
              ws)
      -. 100.;
    peel_growth_pct =
      100.
      *. Metrics.geomean
           (List.map
              (fun w ->
                let r = get_exn s w Config.ILP_CS in
                1.
                +. float_of_int r.Metrics.stats.Driver.peel_instrs
                   /. float_of_int (max 1 r.Metrics.stats.Driver.instrs_after_classical))
              ws)
      -. 100.;
    front_end_stall_reduction_pct =
      100.
      *. (1.
         -. avg (fun w ->
                let b =
                  max 1.0 (Metrics.category (get_exn s w Config.O_NS) Epic_sim.Accounting.Front_end)
                in
                Metrics.category (get_exn s w Config.ILP_CS) Epic_sim.Accounting.Front_end /. b));
    l1i_access_reduction_pct =
      100.
      *. (1.
         -. avg (fun w ->
                float_of_int (get_exn s w Config.ILP_CS).Metrics.l1i_accesses
                /. float_of_int (max 1 (get_exn s w Config.O_NS).Metrics.l1i_accesses)));
    avg_planned_ipc_cs = avg (fun w -> Metrics.planned_ipc (get_exn s w Config.ILP_CS));
    avg_achieved_ipc_cs = avg (fun w -> Metrics.achieved_ipc (get_exn s w Config.ILP_CS));
  }

(* --- Section 4 experiments: per-workload cell groups ------------------ *)

(* [variants] are the cells each workload contributes, in order; [row]
   turns one workload's results, in that order, into its rows. *)
let per_workload backend workloads variants row =
  let ws = List.map Suite.find_exn workloads in
  let results, _ =
    Matrix.run backend (List.concat_map (fun w -> List.map (fun v -> v w) variants) ws)
  in
  let k = List.length variants in
  List.mapi (fun i w -> row w (Array.sub results (i * k) k)) ws

let total (s : Matrix.sim) = Epic_sim.Accounting.total s.Matrix.machine.Epic_sim.Machine.acc

(* An ILP-CS cell of [w] with [tweak] applied to its configuration. *)
let ilp_cs ?(tweak = Fun.id) reduce w =
  Matrix.cell w (tweak (config_for w Config.ILP_CS)) reduce

(* --- Section 4.3: speculation models (Figure 9's cost structure) --------- *)

type spec_model_row = {
  sm_bench : string;
  general_cycles : float;
  general_kernel : float;
  general_wild : int;
  sentinel_cycles : float;
  sentinel_recoveries : int;
}

let spec_model_experiment ?(workloads = [ "gcc"; "parser"; "perlbmk"; "gap" ])
    backend =
  let open Epic_sim in
  let measure s =
    let st = s.Matrix.machine in
    ( Accounting.total st.Machine.acc,
      Accounting.get st.Machine.acc Accounting.Kernel,
      st.Machine.c.Machine.wild_loads,
      st.Machine.c.Machine.chk_recoveries )
  in
  let model m = ilp_cs ~tweak:(fun c -> { c with Config.spec_model = m }) measure in
  per_workload backend workloads
    [ model Epic_ilp.Speculate.General; model Epic_ilp.Speculate.Sentinel ]
    (fun w r ->
      let general_cycles, general_kernel, general_wild, _ = r.(0) in
      let sentinel_cycles, _, _, sentinel_recoveries = r.(1) in
      {
        sm_bench = w.Workload.short;
        general_cycles;
        general_kernel;
        general_wild;
        sentinel_cycles;
        sentinel_recoveries;
      })

(* --- Section 4.6: profile variation -------------------------------------- *)

type profvar_row = {
  pv_bench : string;
  train_trained_cycles : float; (* normal SPEC practice *)
  ref_trained_cycles : float; (* trained on the reference input *)
  improvement_pct : float;
}

let profile_variation ?(workloads = [ "crafty"; "perlbmk"; "gap" ]) backend =
  per_workload backend workloads
    [
      ilp_cs total;
      (fun w -> { (ilp_cs total w) with Matrix.train = w.Workload.reference });
    ]
    (fun w cycles ->
      let t = cycles.(0) and r = cycles.(1) in
      {
        pv_bench = w.Workload.short;
        train_trained_cycles = t;
        ref_trained_cycles = r;
        improvement_pct = 100. *. (t -. r) /. t;
      })

(* --- Extension: data speculation (paper Section 2) ----------------------- *)

type data_spec_row = {
  ds_bench : string;
  without_cycles : float;
  with_cycles : float;
  advanced : int;
  recoveries : int;
}

(* The paper: "In gap, pointer analysis is unable to resolve critical
   spurious dependences in otherwise highly-parallel loops.  A limited
   initial application [of data speculation], currently in progress, is
   providing a 5% speedup."  We reproduce the experiment: ILP-CS with and
   without the ld.a/chk.a extension. *)
let data_spec_experiment ?(workloads = [ "gap"; "gzip"; "bzip2"; "vortex" ])
    backend =
  let measure (s : Matrix.sim) =
    ( total s,
      s.Matrix.compiled.Driver.transform_stats.Driver.advanced_loads,
      s.Matrix.machine.Epic_sim.Machine.c.Epic_sim.Machine.chk_recoveries )
  in
  let data_spec enable =
    ilp_cs ~tweak:(fun c -> { c with Config.enable_data_speculation = enable }) measure
  in
  per_workload backend workloads [ data_spec false; data_spec true ] (fun w r ->
      let without_cycles, _, _ = r.(0) and with_cycles, advanced, recoveries = r.(1) in
      { ds_bench = w.Workload.short; without_cycles; with_cycles; advanced; recoveries })

(* --- Ablations of the design choices DESIGN.md calls out ----------------- *)

type ablation_row = {
  ab_name : string;
  ab_bench : string;
  ab_cycles : float;
}

let ablations ?(workloads = [ "gzip"; "crafty"; "vortex"; "twolf" ]) backend =
  List.concat
    (per_workload backend workloads
       (List.map (fun (a : Config.ablation) -> ilp_cs ~tweak:a.Config.a_tweak total) Config.ablations)
       (fun w r ->
         List.mapi
           (fun i (a : Config.ablation) ->
             { ab_name = a.Config.a_name; ab_bench = w.Workload.short; ab_cycles = r.(i) })
           Config.ablations))
