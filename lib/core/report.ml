(* Textual rendering of every reproduced table and figure, side by side with
   the paper's headline numbers where it states them. *)

open Epic_sim

let level_cols = [ Config.Gcc_like; Config.O_NS; Config.ILP_NS; Config.ILP_CS ]

let pr fmt = Printf.printf fmt

let hr () = pr "%s\n" (String.make 78 '-')

let print_table1 (s : Experiments.suite_result) =
  pr "\n== Table 1: Estimated SPECint2000 performance ratios ==\n";
  pr "   (normalized so the GCC geomean = 430, matching the paper's scale)\n\n";
  pr "%-10s %8s %8s %8s %8s   %s\n" "Benchmark" "GCC" "O-NS" "ILP-NS" "ILP-CS" "ILP-CS/O-NS";
  hr ();
  let rows, geos = Experiments.table1 s in
  List.iter
    (fun (r : Experiments.table1_row) ->
      let v l = List.assoc l r.Experiments.ratios in
      pr "%-10s %8.0f %8.0f %8.0f %8.0f   %10.2f\n" r.Experiments.bench
        (v Config.Gcc_like) (v Config.O_NS) (v Config.ILP_NS) (v Config.ILP_CS)
        (v Config.ILP_CS /. v Config.O_NS))
    rows;
  hr ();
  let g l = List.assoc l geos in
  pr "%-10s %8.0f %8.0f %8.0f %8.0f   %10.2f\n" "GEOMEAN" (g Config.Gcc_like)
    (g Config.O_NS) (g Config.ILP_NS) (g Config.ILP_CS)
    (g Config.ILP_CS /. g Config.O_NS);
  pr "\npaper:     GEOMEAN    430      591      645      668         1.13\n";
  pr "speedup ILP-CS/GCC: measured %.2f (paper 1.55); ILP-NS/O-NS: measured %.2f (paper 1.10)\n"
    (g Config.ILP_CS /. g Config.Gcc_like)
    (g Config.ILP_NS /. g Config.O_NS)

let print_fig2 (s : Experiments.suite_result) =
  pr "\n== Figure 2: planned vs exploited speedup over O-NS ==\n\n";
  pr "%-10s %16s %16s\n" "Benchmark" "ILP-NS pl/expl" "ILP-CS pl/expl";
  hr ();
  let rows = Experiments.fig2 s in
  List.iter
    (fun w ->
      let find l =
        List.find
          (fun (r : Experiments.fig2_row) ->
            r.Experiments.f2_bench = w && r.Experiments.f2_level = l)
          rows
      in
      let ns = find Config.ILP_NS and cs = find Config.ILP_CS in
      pr "%-10s   %6.2f / %5.2f   %6.2f / %5.2f\n" w ns.Experiments.planned_speedup
        ns.Experiments.exploited_speedup cs.Experiments.planned_speedup
        cs.Experiments.exploited_speedup)
    (Experiments.workload_names s);
  let planned, exploited = Experiments.fig2_averages s in
  hr ();
  pr "ILP-CS average: planned %.2f (paper 1.36), exploited %.2f (paper 1.13)\n"
    planned exploited

let cat_names =
  [
    (Accounting.Kernel, "kernel");
    (Accounting.Rse, "rse");
    (Accounting.Br_mispredict, "br-flush");
    (Accounting.Front_end, "frontend");
    (Accounting.Micropipe, "micropipe");
    (Accounting.Int_load_bubble, "ld-bubble");
    (Accounting.Misc, "misc");
    (Accounting.Float_scoreboard, "fp-score");
    (Accounting.Unstalled, "unstalled");
  ]

let print_fig5 (s : Experiments.suite_result) =
  pr "\n== Figure 5: cycle accounting, normalized to O-NS total ==\n\n";
  pr "%-10s %-7s" "Benchmark" "Config";
  List.iter (fun (_, n) -> pr " %9s" n) cat_names;
  pr " %9s\n" "TOTAL";
  hr ();
  List.iter
    (fun (w, per_level) ->
      List.iter
        (fun (l, cats) ->
          pr "%-10s %-7s" w (Config.level_name l);
          List.iter
            (fun (c, _) -> pr " %9.3f" cats.(Accounting.index c))
            cat_names;
          pr " %9.3f\n" (Array.fold_left ( +. ) 0. cats))
        per_level)
    (Experiments.fig5 s)

let print_fig6 (s : Experiments.suite_result) =
  pr "\n== Figure 6: operation accounting and IPC ==\n";
  pr "   (ops normalized to O-NS fetched ops; IPC = planned/achieved useful)\n\n";
  pr "%-10s %-7s %8s %8s %8s %8s %8s %8s\n" "Benchmark" "Config" "useful"
    "squashed" "nops" "kernel" "IPCplan" "IPCach";
  hr ();
  List.iter
    (fun (r : Experiments.fig6_row) ->
      pr "%-10s %-7s %8.3f %8.3f %8.3f %8.3f %8.2f %8.2f\n" r.Experiments.f6_bench
        (Config.level_name r.Experiments.f6_level)
        r.Experiments.useful r.Experiments.squashed r.Experiments.nops
        r.Experiments.kernel r.Experiments.ipc_planned r.Experiments.ipc_achieved)
    (Experiments.fig6 s);
  pr "\npaper ILP-CS averages: planned IPC 2.63, achieved 1.23\n"

let print_fig7 (s : Experiments.suite_result) =
  pr "\n== Figure 7: branches and prediction (normalized to O-NS) ==\n\n";
  pr "%-10s %-7s %12s %12s %12s\n" "Benchmark" "Config" "predictions"
    "mispredicts" "correct-rate";
  hr ();
  List.iter
    (fun (r : Experiments.fig7_row) ->
      pr "%-10s %-7s %12.3f %12.3f %12.4f\n" r.Experiments.f7_bench
        (Config.level_name r.Experiments.f7_level)
        r.Experiments.predictions_norm r.Experiments.mispredictions_norm
        r.Experiments.correct_rate)
    (Experiments.fig7 s);
  pr "\nbranch reduction ILP-CS vs O-NS: %.0f%% (paper 27%%)\n"
    (100. *. Experiments.branch_reduction s)

let print_fig8 (s : Experiments.suite_result) =
  pr "\n== Figure 8: data-cache (load bubble) stall cycles vs O-NS ==\n\n";
  pr "%-10s %10s %10s\n" "Benchmark" "ILP-NS" "ILP-CS";
  hr ();
  List.iter
    (fun (w, per_level) ->
      pr "%-10s %10.3f %10.3f\n" w
        (List.assoc Config.ILP_NS per_level)
        (List.assoc Config.ILP_CS per_level))
    (Experiments.fig8 s)

let print_fig10 ?(workload = "vortex") (s : Experiments.suite_result) =
  pr "\n== Figure 10: per-function execution time, %s ==\n" workload;
  pr "   (share of O-NS cycles; ratio = ILP time / O-NS time per function)\n\n";
  pr "%-16s %10s %10s %10s\n" "Function" "O-NS share" "ILP-NS" "ILP-CS";
  hr ();
  List.iter
    (fun (r : Experiments.fig10_row) ->
      pr "%-16s %9.1f%% %10.2f %10.2f\n" r.Experiments.func
        (100. *. r.Experiments.base_share)
        r.Experiments.ratio_ns r.Experiments.ratio_cs)
    (Experiments.fig10 ~workload s)

let print_stats (s : Experiments.suite_result) =
  let st = Experiments.structural_stats s in
  pr "\n== Section 3 aggregate statistics ==\n\n";
  pr "  dynamic branch reduction (ILP-CS vs O-NS):  %6.1f%%   (paper: 27%%)\n"
    st.Experiments.branch_reduction_pct;
  pr "  static growth from tail duplication:        %6.1f%%   (paper: 21%%)\n"
    st.Experiments.tail_dup_growth_pct;
  pr "  static growth from loop peeling:            %6.1f%%   (paper: 2%%)\n"
    st.Experiments.peel_growth_pct;
  pr "  front-end stall reduction:                  %6.1f%%   (paper: 15%%)\n"
    st.Experiments.front_end_stall_reduction_pct;
  pr "  L1I access reduction:                       %6.1f%%   (paper: ~10%%)\n"
    st.Experiments.l1i_access_reduction_pct;
  pr "  ILP-CS planned IPC:                         %6.2f    (paper: 2.63)\n"
    st.Experiments.avg_planned_ipc_cs;
  pr "  ILP-CS achieved IPC:                        %6.2f    (paper: 1.23)\n"
    st.Experiments.avg_achieved_ipc_cs

let print_spec_model rows =
  pr "\n== Section 4.3: general vs sentinel control speculation ==\n\n";
  pr "%-10s %12s %12s %8s %12s %10s\n" "Benchmark" "general-cyc" "kernel-cyc"
    "wild" "sentinel-cyc" "recoveries";
  hr ();
  List.iter
    (fun (r : Experiments.spec_model_row) ->
      pr "%-10s %12.0f %12.0f %8d %12.0f %10d\n" r.Experiments.sm_bench
        r.Experiments.general_cycles r.Experiments.general_kernel
        r.Experiments.general_wild r.Experiments.sentinel_cycles
        r.Experiments.sentinel_recoveries)
    rows;
  pr "\npaper: under the general model, gcc spends ~20%% of its time chasing\n";
  pr "spurious (wild-load) page walks in the kernel; sentinel avoids the\n";
  pr "walks at the cost of check/recovery overhead.\n"

let print_profvar rows =
  pr "\n== Section 4.6: profile variation ==\n\n";
  pr "%-10s %14s %14s %12s\n" "Benchmark" "train-trained" "ref-trained" "improvement";
  hr ();
  List.iter
    (fun (r : Experiments.profvar_row) ->
      pr "%-10s %14.0f %14.0f %11.1f%%\n" r.Experiments.pv_bench
        r.Experiments.train_trained_cycles r.Experiments.ref_trained_cycles
        r.Experiments.improvement_pct)
    rows;
  pr "\npaper: crafty +5%%, perlbmk +10%%, gap +3%% when trained on ref inputs\n"

let print_data_spec rows =
  pr "\n== Extension: data speculation (ld.a / chk.a through the ALAT) ==\n\n";
  pr "%-10s %12s %12s %9s %9s %10s\n" "Benchmark" "without" "with" "speedup"
    "advanced" "recoveries";
  hr ();
  List.iter
    (fun (r : Experiments.data_spec_row) ->
      pr "%-10s %12.0f %12.0f %9.3f %9d %10d\n" r.Experiments.ds_bench
        r.Experiments.without_cycles r.Experiments.with_cycles
        (r.Experiments.without_cycles /. r.Experiments.with_cycles)
        r.Experiments.advanced r.Experiments.recoveries)
    rows;
  pr "\npaper: a limited initial application of data speculation gave gap ~5%%\n"

let print_ablations rows =
  pr "\n== Ablations: ILP-CS with one mechanism disabled ==\n\n";
  let benches = List.sort_uniq compare (List.map (fun r -> r.Experiments.ab_bench) rows) in
  pr "%-14s" "Variant";
  List.iter (fun b -> pr " %10s" b) benches;
  pr "\n";
  hr ();
  let variants =
    List.sort_uniq compare (List.map (fun r -> r.Experiments.ab_name) rows)
  in
  let base b =
    (List.find
       (fun r ->
         r.Experiments.ab_name = (List.hd Config.ablations).Config.a_name
         && r.Experiments.ab_bench = b)
       rows)
      .Experiments.ab_cycles
  in
  List.iter
    (fun v ->
      pr "%-14s" v;
      List.iter
        (fun b ->
          let r =
            List.find
              (fun r -> r.Experiments.ab_name = v && r.Experiments.ab_bench = b)
              rows
          in
          pr " %10.3f" (r.Experiments.ab_cycles /. base b))
        benches;
      pr "\n")
    variants;
  pr "\n(cycles normalized to the full ILP-CS configuration; >1 = slower)\n"
