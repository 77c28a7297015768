(* Experiment harness: compiles and runs the twelve-workload suite under the
   four configurations and derives every table and figure of the paper's
   evaluation section.  Results are memoized so one suite run feeds all the
   tables (like one SPEC run feeding many counters). *)

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

(* Reference output: the program as lowered (unoptimized), interpreted. *)
let reference_output (w : Workload.t) =
  let p = Epic_frontend.Lower.compile_source w.Workload.source in
  let code, out, _ = Epic_ir.Interp.run p w.Workload.reference in
  (code, out)

(* Sampling period for the suite's PC profiler (the Pfmon address-sampling
   stand-in feeding Figure 10).  Prime, to avoid aliasing with periodic
   code; small enough that per-function shares converge within 5% of the
   exact accounting on every workload. *)
let sample_period = 97

let run_one ?(train : int64 array option) ?reference ?desc
    ?(compile = Driver.default_compile) (w : Workload.t) (level : Config.level)
    =
  let config = config_for w level in
  let train = match train with Some t -> t | None -> w.Workload.train in
  let compiled = compile ~config ~desc ~train w.Workload.source in
  (* the reference interpretation is per-workload, not per-level: suite
     runs compute it once and pass it in *)
  let ref_code, ref_out =
    match reference with Some r -> r | None -> reference_output w
  in
  let profile = Epic_obs.Profile.create ~period:sample_period () in
  (* time the simulation and its GC traffic (host observability; exports
     zero this under --normalize-time, so determinism diffs are unaffected) *)
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let code, out, st = Driver.run ~profile compiled w.Workload.reference in
  let wall = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  let host =
    {
      Metrics.h_wall_s = wall;
      h_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      h_major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
      h_minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      h_major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    }
  in
  let ok = code = ref_code && out = ref_out in
  if not ok then
    Fmt.epr "WARNING: %s/%s output mismatch@." w.Workload.short (Config.name config);
  Metrics.of_machine ~workload:w.Workload.short ~profile ~host compiled st ~output_matches:ok

let levels = [ Config.Gcc_like; Config.O_NS; Config.ILP_NS; Config.ILP_CS ]

(* The suite is 12 workloads x 4 levels = 48 independent compile+simulate
   jobs, sharded over a domain pool ([Pool.map]).  Determinism: each job
   compiles its program from source, which resets the domain-local
   instruction-id counter, so the ids — and with them branch-predictor
   indexing and sample attribution — are identical whichever domain runs
   the job.  Reference outputs are computed once per workload (phase 1) and
   shared read-only with the 4 per-level jobs (phase 2).  Results come back
   in index order, so [runs] is ordered exactly as the sequential walk. *)
let run_suite ?(workloads = Suite.all) ?(progress = false) ?(jobs = 1)
    ?compile () =
  let ws = Array.of_list workloads in
  let references =
    Pool.map ~jobs
      (fun (w : Workload.t) ->
        if progress then Fmt.epr "  reference %s...@." w.Workload.short;
        reference_output w)
      ws
  in
  let pairs =
    Array.of_list
      (List.concat_map
         (fun wi -> List.map (fun level -> (wi, level)) levels)
         (List.init (Array.length ws) Fun.id))
  in
  let results =
    Pool.map ~jobs
      (fun (wi, level) ->
        let w = ws.(wi) in
        if progress then
          Fmt.epr "  running %s / %s...@." w.Workload.short (Config.level_name level);
        run_one ~reference:references.(wi) ?compile w level)
      pairs
  in
  let runs =
    Array.to_list
      (Array.mapi
         (fun i (wi, level) -> (ws.(wi).Workload.short, level, results.(i)))
         pairs)
  in
  { runs; index = index_runs runs }

(* Runs whose simulated output diverged from the reference interpreter.
   [run_one] warns as it happens; this is the machine-checkable record the
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

(* --- Section 4.3: speculation models (Figure 9's cost structure) --------- *)

type spec_model_row = {
  sm_bench : string;
  general_cycles : float;
  general_kernel : float;
  general_wild : int;
  sentinel_cycles : float;
  sentinel_recoveries : int;
}

let spec_model_experiment ?(workloads = [ "gcc"; "parser"; "perlbmk"; "gap" ]) () =
  List.map
    (fun short ->
      let w = Suite.find_exn short in
      let compile model =
        let config =
          {
            (config_for w Config.ILP_CS) with
            Config.spec_model = model;
          }
        in
        let compiled = Driver.compile ~config ~train:w.Workload.train w.Workload.source in
        let _, _, st = Driver.run compiled w.Workload.reference in
        st
      in
      let open Epic_sim in
      let g = compile Epic_ilp.Speculate.General in
      let st = compile Epic_ilp.Speculate.Sentinel in
      {
        sm_bench = short;
        general_cycles = Accounting.total g.Machine.acc;
        general_kernel = Accounting.get g.Machine.acc Accounting.Kernel;
        general_wild = g.Machine.c.Machine.wild_loads;
        sentinel_cycles = Accounting.total st.Machine.acc;
        sentinel_recoveries = st.Machine.c.Machine.chk_recoveries;
      })
    workloads

(* --- Section 4.6: profile variation -------------------------------------- *)

type profvar_row = {
  pv_bench : string;
  train_trained_cycles : float; (* normal SPEC practice *)
  ref_trained_cycles : float; (* trained on the reference input *)
  improvement_pct : float;
}

let profile_variation ?(workloads = [ "crafty"; "perlbmk"; "gap" ]) () =
  List.map
    (fun short ->
      let w = Suite.find_exn short in
      let cycles ~train =
        let config = config_for w Config.ILP_CS in
        let compiled = Driver.compile ~config ~train w.Workload.source in
        let _, _, st = Driver.run compiled w.Workload.reference in
        Epic_sim.Accounting.total st.Epic_sim.Machine.acc
      in
      let t = cycles ~train:w.Workload.train in
      let r = cycles ~train:w.Workload.reference in
      {
        pv_bench = short;
        train_trained_cycles = t;
        ref_trained_cycles = r;
        improvement_pct = 100. *. (t -. r) /. t;
      })
    workloads

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
let data_spec_experiment ?(workloads = [ "gap"; "gzip"; "bzip2"; "vortex" ]) () =
  List.map
    (fun short ->
      let w = Suite.find_exn short in
      let run enable =
        let config =
          {
            (config_for w Config.ILP_CS) with
            Config.enable_data_speculation = enable;
          }
        in
        let compiled = Driver.compile ~config ~train:w.Workload.train w.Workload.source in
        let _, _, st = Driver.run compiled w.Workload.reference in
        (compiled, st)
      in
      let _, st0 = run false in
      let c1, st1 = run true in
      {
        ds_bench = short;
        without_cycles = Epic_sim.Accounting.total st0.Epic_sim.Machine.acc;
        with_cycles = Epic_sim.Accounting.total st1.Epic_sim.Machine.acc;
        advanced = c1.Driver.transform_stats.Driver.advanced_loads;
        recoveries = st1.Epic_sim.Machine.c.Epic_sim.Machine.chk_recoveries;
      })
    workloads

(* --- Ablations of the design choices DESIGN.md calls out ----------------- *)

type ablation_row = {
  ab_name : string;
  ab_bench : string;
  ab_cycles : float;
}

let ablations ?(workloads = [ "gzip"; "crafty"; "vortex"; "twolf" ]) () =
  let variants =
    [
      ("full ILP-CS", fun (c : Config.t) -> c);
      ("no hyperblock", fun c -> { c with Config.enable_hyperblock = false });
      ("no peeling", fun c -> { c with Config.enable_peel = false });
      ("no unrolling", fun c -> { c with Config.enable_unroll = false });
      ( "no tail dup",
        fun c ->
          {
            c with
            Config.superblock =
              { c.Config.superblock with Epic_ilp.Superblock.growth_budget = 0.0 };
          } );
      ( "no inlining",
        fun c -> { c with Config.inline_budget = 1.0 } );
      ( "no height red.",
        fun c -> { c with Config.enable_height_reduction = false } );
    ]
  in
  List.concat_map
    (fun short ->
      let w = Suite.find_exn short in
      List.map
        (fun (name, tweak) ->
          let config = tweak (config_for w Config.ILP_CS) in
          let compiled = Driver.compile ~config ~train:w.Workload.train w.Workload.source in
          let _, _, st = Driver.run compiled w.Workload.reference in
          { ab_name = name; ab_bench = short;
            ab_cycles = Epic_sim.Accounting.total st.Epic_sim.Machine.acc })
        variants)
    workloads
