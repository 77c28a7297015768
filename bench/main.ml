(* The paper-artifact harness: regenerates every table and figure of the
   paper's evaluation section (one sub-command per artifact; default = all).
   Host performance is measured by perfbench/, not here.

     dune exec bench/main.exe                 # all tables + figures
     dune exec bench/main.exe table1 fig5     # a subset

   Artifacts: table1 fig2 fig5 fig6 fig7 fig8 fig10 stats spec_model
   profvar ablations data_spec.

   `--json FILE` additionally writes the whole suite result (per-workload,
   per-config cycles, category arrays, counters, pass timings, profiles)
   as one JSON document — the machine-readable companion to the tables.

   `-j N` (or `--jobs N`) shards the 48 compile+simulate jobs over N
   domains; the result is byte-identical to `-j 1` (the determinism test
   and the CI gate enforce it).  The default is the machine's recommended
   domain count, capped at the job count; `-j 1` is the explicit
   sequential escape hatch.  `--workloads a,b,c` restricts the suite to
   a subset, and `--normalize-time` zeroes the wall-clock fields of the
   JSON export so two runs can be diffed byte-for-byte.

   `sweep` runs the machine-sensitivity matrix (lib/sweep) instead of the
   paper artifacts; it only runs when named explicitly, never as part of
   the default "everything" run.  `--variants v,..` selects machine
   variants and `--sweep-baseline FILE` diffs the normalized sweep JSON
   against a stored baseline, failing on any difference (the CI
   regression gate).

   `sample_acc` runs the sampled-simulation accuracy harness (lib/sample):
   every selected workload in full and under interval sampling, asserting
   the documented error budgets (geomean total <= 2%, per-category <= 5%)
   and printing per-workload errors and speedups.  `--sample-plan I:D[:W]`
   overrides the sampling plan and `--sample-json FILE` writes the error
   report as JSON (the CI `sample-accuracy` job's artifact).  Explicit-only
   and always sequential (-j is ignored) so the speedups are wall-clock
   trustworthy.

   `causal` runs the COZ-style virtual-speedup matrix (lib/causal) on
   gzip,twolf (or the --workloads subset), prints the ranked causal
   report, and fails unless every target saves at factor 1.0 exactly the
   cycles the baseline charged to it (the local-exactness invariant of
   DESIGN.md §11).  Explicit-only, like sweep.

   Exit status: non-zero if any run's simulated output diverged from the
   reference interpreter (CI fails on divergence, not just a warning). *)

let suite_artifacts =
  [ "table1"; "fig2"; "fig5"; "fig6"; "fig7"; "fig8"; "fig10"; "stats" ]

(* Artifacts that run only when named explicitly (too broad or too slow to
   fold into the default "everything" run). *)
let explicit_artifacts = [ "sweep"; "causal"; "sample_acc" ]

let all_artifacts =
  suite_artifacts
  @ [ "spec_model"; "profvar"; "ablations"; "data_spec" ]
  @ explicit_artifacts

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Peel off the option flags before artifact-name validation. *)
  let json_file = ref None in
  let jobs = ref 0 (* 0 = auto: recommended domain count, capped at jobs *) in
  let subset = ref None in
  let normalize_time = ref false in
  let sweep_variants = ref None in
  let sweep_baseline = ref None in
  let sample_json = ref None in
  let sample_plan = ref Epic_sim.Sampling.default_plan in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | _ ->
        Printf.eprintf "%s expects a positive integer, got %S\n" flag v;
        exit 2
  in
  let rec split_opts acc = function
    | "--json" :: f :: rest ->
        json_file := Some f;
        split_opts acc rest
    | ("-j" | "--jobs") :: v :: rest ->
        jobs := int_arg "-j" v;
        split_opts acc rest
    | "--workloads" :: v :: rest ->
        subset := Some (String.split_on_char ',' v);
        split_opts acc rest
    | "--normalize-time" :: rest ->
        normalize_time := true;
        split_opts acc rest
    | "--variants" :: v :: rest ->
        sweep_variants := Some (String.split_on_char ',' v);
        split_opts acc rest
    | "--sweep-baseline" :: f :: rest ->
        sweep_baseline := Some f;
        split_opts acc rest
    | "--sample-json" :: f :: rest ->
        sample_json := Some f;
        split_opts acc rest
    | "--sample-plan" :: v :: rest ->
        (match Epic_sim.Sampling.parse_spec v with
        | plan -> sample_plan := plan
        | exception Invalid_argument e ->
            Printf.eprintf "%s\n" e;
            exit 2);
        split_opts acc rest
    | a :: rest -> split_opts (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = split_opts [] args in
  let json_file = !json_file in
  let workloads =
    match !subset with
    | None -> Epic_workloads.Suite.all
    | Some names ->
        List.map
          (fun n ->
            match Epic_workloads.Suite.find n with
            | Some w -> w
            | None ->
                Printf.eprintf "unknown workload %S\nknown: %s\n" n
                  (String.concat " " Epic_workloads.Suite.names);
                exit 2)
          names
  in
  let bad = List.filter (fun a -> not (List.mem a all_artifacts)) args in
  if bad <> [] then begin
    Printf.eprintf "unknown artifact(s): %s\nknown: %s\n"
      (String.concat " " bad)
      (String.concat " " all_artifacts);
    exit 2
  end;
  let wanted x =
    if List.mem x explicit_artifacts then List.mem x args
    else args = [] || List.mem x args
  in
  (* -j 0 (the default) resolves to the recommended domain count, capped at
     the number of jobs so no idle domain is ever spawned. *)
  let auto_jobs n_jobs =
    if !jobs >= 1 then !jobs
    else min (Domain.recommended_domain_count ()) (max 1 n_jobs)
  in
  (* One session for the whole invocation: every artifact's matrix runs
     on its backend, so compiles and reference interpretations are shared
     across the suite, the Section 4 experiments, the sweep and the causal
     matrix (the sweep baseline, the suite's ILP-CS column and the causal
     baselines share entries; each (source, input) is interpreted once).
     The pool width is the suite's; Pool.map never spawns more domains
     than there are jobs, so narrower artifacts are unaffected. *)
  let session =
    Epic_serve.Session.create ~jobs:(auto_jobs (4 * List.length workloads)) ()
  in
  let jobs = Epic_serve.Session.jobs session in
  let backend = Epic_serve.Session.backend session in
  (* --json needs the suite even if only non-suite artifacts were named. *)
  let needs_suite = List.exists wanted suite_artifacts || json_file <> None in
  (if needs_suite then begin
     Printf.eprintf "running the %d-workload suite under 4 configurations (-j %d)...\n%!"
       (List.length workloads) jobs;
     let s =
       Epic_core.Experiments.run_suite ~workloads ~progress:true backend
     in
     (match json_file with
     | Some f ->
         let doc = Epic_core.Export.suite_to_json s in
         let doc = if !normalize_time then Epic_core.Export.normalize_time doc else doc in
         Epic_obs.Json.to_file f doc;
         Printf.eprintf "wrote suite metrics to %s\n%!" f
     | None -> ());
     (match Epic_core.Experiments.mismatches s with
     | [] -> ()
     | bad ->
         List.iter
           (fun (w, l) ->
             Printf.eprintf "FAIL: %s/%s simulated output diverged from the reference interpreter\n"
               w (Epic_core.Config.level_name l))
           bad;
         exit 1);
     if wanted "table1" then Epic_core.Report.print_table1 s;
     if wanted "fig2" then Epic_core.Report.print_fig2 s;
     if wanted "fig5" then Epic_core.Report.print_fig5 s;
     if wanted "fig6" then Epic_core.Report.print_fig6 s;
     if wanted "fig7" then Epic_core.Report.print_fig7 s;
     if wanted "fig8" then Epic_core.Report.print_fig8 s;
     if wanted "fig10" then Epic_core.Report.print_fig10 s;
     if wanted "stats" then Epic_core.Report.print_stats s
   end);
  if wanted "spec_model" then
    Epic_core.Report.print_spec_model
      (Epic_core.Experiments.spec_model_experiment backend);
  if wanted "profvar" then
    Epic_core.Report.print_profvar (Epic_core.Experiments.profile_variation backend);
  if wanted "ablations" then
    Epic_core.Report.print_ablations (Epic_core.Experiments.ablations backend);
  if wanted "data_spec" then
    Epic_core.Report.print_data_spec
      (Epic_core.Experiments.data_spec_experiment backend);
  if wanted "sweep" then begin
    let open Epic_sweep.Sweep in
    let vs =
      match !sweep_variants with
      | None -> variants
      | Some names ->
          List.map
            (fun n ->
              match find_variant n with
              | Some v -> v
              | None ->
                  Printf.eprintf "unknown variant %S\n" n;
                  exit 2)
            names
    in
    (* sweep defaults to a bounded workload pair; --workloads widens it *)
    let sweep_workloads =
      match !subset with
      | Some names -> names
      | None -> [ "gzip"; "twolf" ]
    in
    Printf.eprintf "running the sensitivity sweep (%d variants, -j %d)...\n%!"
      (List.length vs) jobs;
    let r =
      run ~variants:vs ~progress:true ~workloads:sweep_workloads backend
    in
    print_report Fmt.stdout r;
    (match mismatches r with
    | [] -> ()
    | l ->
        List.iter
          (fun c ->
            Printf.eprintf
              "FAIL: sweep %s/%s/%s simulated output diverged from the reference\n"
              c.c_workload c.c_variant c.c_ablation)
          l;
        exit 1);
    match !sweep_baseline with
    | None -> ()
    | Some f ->
        let norm j =
          Epic_obs.Json.to_string ~pretty:true (Epic_core.Export.normalize_time j)
        in
        let stored =
          match
            In_channel.with_open_text f In_channel.input_all
            |> Epic_obs.Json.of_string
          with
          | Ok j -> j
          | Error e ->
              Printf.eprintf "cannot parse %s: %s\n" f e;
              exit 2
        in
        if norm stored = norm (to_json r) then
          Printf.eprintf "sweep baseline %s matches\n%!" f
        else begin
          Printf.eprintf "FAIL: sweep result differs from baseline %s\n" f;
          exit 1
        end
  end;
  if wanted "sample_acc" then begin
    Printf.eprintf
      "running the sampled-simulation accuracy harness (%d workloads, full + \
       sampled, sequential)...\n%!"
      (List.length workloads);
    let rep =
      Epic_sample.Sample.run ~plan:!sample_plan ~workloads
        { backend with Epic_core.Matrix.jobs = 1 }
    in
    Epic_sample.Sample.print Fmt.stdout rep;
    (match !sample_json with
    | None -> ()
    | Some f ->
        Epic_obs.Json.to_file f (Epic_sample.Sample.to_json rep);
        Printf.eprintf "wrote sample-accuracy report to %s\n%!" f);
    if not rep.Epic_sample.Sample.pass then exit 1
  end;
  if wanted "causal" then begin
    let open Epic_causal.Causal in
    (* causal defaults to the same bounded pair as sweep; the planner picks
       each workload's targets, and the exactness gate always runs *)
    let causal_workloads =
      match !subset with Some names -> names | None -> [ "gzip"; "twolf" ]
    in
    Printf.eprintf "running the causal-profiling matrix (-j %d)...\n%!" jobs;
    let r =
      run ~factors:default_factors ~progress:true ~workloads:causal_workloads
        backend
    in
    print_report Fmt.stdout r;
    (let gr = r.r_grid in
     Printf.eprintf
       "causal grid: %d cells from %d detailed sims (%d saved, %.1f \
        cells/sim) in %.1fs\n\
        %!"
       gr.gr_cells gr.gr_sims
       (gr.gr_cells - gr.gr_sims)
       (float_of_int gr.gr_cells /. float_of_int (max 1 gr.gr_sims))
       r.r_wall_s);
    (match mismatches r with
    | [] -> ()
    | l ->
        List.iter
          (fun (w, t, f) ->
            Printf.eprintf
              "FAIL: causal %s/%s/%g simulated output diverged from the reference\n"
              w (target_name t) f)
          l;
        exit 1);
    let rows = check_local_exactness r in
    let bad = List.filter (fun row -> not row.lk_ok) rows in
    List.iter
      (fun row ->
        Printf.eprintf "FAIL: causal %s/%s is not locally exact\n"
          row.lk_workload (target_name row.lk_target))
      bad;
    if bad <> [] then exit 1;
    Printf.eprintf "causal check: %d factor-1.0 targets locally exact\n%!"
      (List.length rows)
  end
