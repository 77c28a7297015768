(* epicc: compile mini-C source files with chosen configurations and run
   them on the Itanium-2-class simulator, printing program output, the
   cycle accounting and the headline counters.

   All compiles and runs route through one Epic_serve.Session, so a batch
   invocation — several FILEs, repeated --level — reuses the
   content-addressed artifact cache across its runs, and --json reports
   the session's hit/miss/eviction counters in a [session] block
   (stripped by --normalize-time, like [host]). *)

open Cmdliner
module Session = Epic_serve.Session

let level_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "gcc" -> Ok Epic_core.Config.Gcc_like
    | "o-ns" | "ons" -> Ok Epic_core.Config.O_NS
    | "ilp-ns" | "ilpns" -> Ok Epic_core.Config.ILP_NS
    | "ilp-cs" | "ilpcs" -> Ok Epic_core.Config.ILP_CS
    | _ -> Error (`Msg "expected one of: gcc, o-ns, ilp-ns, ilp-cs")
  in
  let print ppf l = Fmt.string ppf (Epic_core.Config.level_name l) in
  Arg.conv (parse, print)

let files =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"FILE" ~doc:"mini-C source file(s); several run through one session")

let levels =
  Arg.(
    value
    & opt_all level_conv []
    & info [ "O"; "level" ] ~docv:"LEVEL"
        ~doc:
          "optimization level: gcc, o-ns, ilp-ns, ilp-cs (default ilp-cs).  \
           Repeatable: each FILE runs once per level, all through the same \
           session cache")

let sentinel =
  Arg.(value & flag & info [ "sentinel" ] ~doc:"use sentinel (chk.s) speculation instead of general")

let no_pa =
  Arg.(value & flag & info [ "no-pointer-analysis" ] ~doc:"disable interprocedural pointer analysis")

let inputs =
  Arg.(
    value
    & opt (list int) []
    & info [ "i"; "input" ] ~docv:"INTS" ~doc:"comma-separated input vector (read by input(i))")

let train =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "train" ] ~docv:"INTS" ~doc:"training input for profiling (defaults to the run input)")

let dump_ir = Arg.(value & flag & info [ "dump-ir" ] ~doc:"print the final IR before running")

let show_loops =
  Arg.(
    value & flag
    & info [ "loops" ]
        ~doc:"print the modulo-scheduling analysis (ResMII/RecMII/achieved II) of inner loops")

let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"print program output only")

let json_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "write the full run metrics (cycle accounting, counters, per-pass \
           compiler instrumentation, PC-sampling profile, session cache \
           counters) as JSON to $(docv); with several runs, a document with \
           a $(b,runs) array")

let normalize_time =
  Arg.(
    value & flag
    & info [ "normalize-time" ]
        ~doc:
          "normalize the --json document for byte-for-byte diffing: zero \
           wall-clock fields and drop the host and session sections \
           (Export.normalize_time)")

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "enable architectural event tracing (cache misses, TLB walks, \
           mispredict flushes, RSE traffic, speculation events) and write the \
           event counts plus the trailing ring-buffer window as JSON to $(docv)")

let sample_period =
  Arg.(
    value
    & opt int 0
    & info [ "sample-period" ] ~docv:"N"
        ~doc:
          "sample the simulated PC every $(docv) cycles (0 disables sampling; \
           a prime such as 97 avoids aliasing with periodic code).  The \
           profile lands in the --json document")

let profile_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "write the PC-sampling profile (period, per-function and per-block \
           sample counts) as JSON to its own $(docv) instead of interleaving \
           it in the --json document (whose profile field is then null).  \
           Implies sampling, at --sample-period or the suite default")

let sample_sim =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "sample-sim" ] ~docv:"I:D[:W]"
        ~doc:
          "simulate under interval sampling: fast-forward in a \
           functional-warming mode and charge cycles only during periodic \
           detailed phases, extrapolating the accounting (with confidence \
           bounds in the --json document).  $(docv) is \
           INTERVAL:DETAIL[:WARMUP] in issue groups; bare $(b,--sample-sim) \
           uses the tuned default plan.  Program output and exit code are \
           exact; cycles are estimates")

let write_json f doc =
  try Epic_obs.Json.to_file f doc
  with Sys_error m ->
    Fmt.epr "epicc: cannot write %s: %s@." f m;
    exit 1

let print_counters config (o : Session.outcome) =
  let m = o.Session.o_metrics in
  Fmt.pr "@.;; %s: exit code %d@." (Epic_core.Config.name config) o.Session.o_code;
  Fmt.pr ";; cycles          %12.0f@." m.Epic_core.Metrics.cycles;
  Fmt.pr ";; planned cycles  %12.0f@." m.Epic_core.Metrics.planned;
  Fmt.pr ";; useful ops      %12d (%.2f IPC)@." m.Epic_core.Metrics.useful_ops
    (float_of_int m.Epic_core.Metrics.useful_ops
    /. max 1.0 m.Epic_core.Metrics.cycles);
  Fmt.pr ";; squashed ops    %12d@." m.Epic_core.Metrics.squashed_ops;
  Fmt.pr ";; nop ops         %12d@." m.Epic_core.Metrics.nop_ops;
  Fmt.pr ";; branches        %12d (%d mispredicted)@." m.Epic_core.Metrics.branches
    m.Epic_core.Metrics.mispredictions;
  Fmt.pr ";; wild loads      %12d@." m.Epic_core.Metrics.wild_loads;
  Fmt.pr ";; chk recoveries  %12d@." m.Epic_core.Metrics.chk_recoveries;
  Fmt.pr ";; code size       %12d bytes@."
    m.Epic_core.Metrics.stats.Epic_core.Driver.code_bytes;
  Fmt.pr ";; cycle accounting:@.";
  List.iter
    (fun c ->
      Fmt.pr "%-16s %12.0f@." (Epic_sim.Accounting.name c)
        m.Epic_core.Metrics.categories.(Epic_sim.Accounting.index c))
    Epic_sim.Accounting.all_categories;
  Fmt.pr "%-16s %12.0f@." "TOTAL" m.Epic_core.Metrics.cycles;
  match m.Epic_core.Metrics.sampling with
  | None -> ()
  | Some su ->
      Fmt.pr ";; sampled (%s): %d/%d groups detailed over %d phases, +-%.0f \
              cycles (95%%)@."
        (Epic_sim.Sampling.key_fragment su.Epic_sim.Sampling.s_plan)
        su.Epic_sim.Sampling.s_detail_groups
        su.Epic_sim.Sampling.s_total_groups su.Epic_sim.Sampling.s_phases
        su.Epic_sim.Sampling.s_ci95

(* One (file, level) cell: compile and run through the session.  The
   instrumented path (--trace / --profile-out) needs the raw instrument
   objects back, so it runs outside the run cache — the compile and
   reference caches still apply. *)
let run_cell session ~file ~level ~sentinel ~no_pa ~input ~train ~dump_ir
    ~show_loops ~quiet ~json_wanted ~trace_file ~sample_period ~profile_out
    ~sampling =
  let src = In_channel.with_open_text file In_channel.input_all in
  let config =
    {
      (Epic_core.Config.make level) with
      Epic_core.Config.spec_model =
        (if sentinel then Epic_ilp.Speculate.Sentinel else Epic_ilp.Speculate.General);
      Epic_core.Config.pointer_analysis = not no_pa;
    }
  in
  match Session.compile session ~config ~desc:None ~train src with
  | exception Epic_frontend.Lexer.Lex_error (m, l) ->
      Fmt.epr "%s:%d: lexical error: %s@." file l m;
      exit 1
  | exception Epic_frontend.Parser.Parse_error (m, l) ->
      Fmt.epr "%s:%d: syntax error: %s@." file l m;
      exit 1
  | exception Epic_frontend.Lower.Lower_error (m, l) ->
      Fmt.epr "%s:%d: error: %s@." file l m;
      exit 1
  | compiled, key, _compile_hit ->
      if dump_ir then Fmt.pr "%a@." Epic_ir.Program.pp compiled.Epic_core.Driver.program;
      if show_loops then begin
        Fmt.pr ";; inner-loop modulo-scheduling analysis:@.";
        List.iter
          (fun (fname, (a : Epic_sched.Modulo.loop_analysis)) ->
            Fmt.pr ";;   %s/%s: %d ops, ResMII=%d RecMII=%d MII=%d achieved II=%s@."
              fname a.Epic_sched.Modulo.label a.Epic_sched.Modulo.n_ops
              a.Epic_sched.Modulo.res_mii a.Epic_sched.Modulo.rec_mii
              a.Epic_sched.Modulo.mii
              (match a.Epic_sched.Modulo.achieved_ii with
              | Some ii -> string_of_int ii
              | None -> "-"))
          (Epic_sched.Modulo.analyze ~desc:compiled.Epic_core.Driver.desc
             compiled.Epic_core.Driver.program)
      end;
      let workload = Filename.basename file in
      let reference, _ = Session.reference session ~source:src ~input in
      let instrumented = trace_file <> None || profile_out <> None in
      let outcome =
        if instrumented then begin
          let trace =
            match trace_file with
            | Some _ -> Some (Epic_obs.Trace.create ())
            | None -> None
          in
          let profile =
            if sample_period > 0 then
              Some (Epic_obs.Profile.create ~period:sample_period ())
            else if json_wanted || profile_out <> None then
              Some (Epic_obs.Profile.create ())
            else None
          in
          let code, out, st =
            Epic_core.Driver.run ?trace ?profile ?sampling compiled input
          in
          (match trace_file with
          | Some f ->
              let tr = Option.get trace in
              write_json f (Epic_obs.Trace.to_json tr);
              if not quiet then
                Fmt.epr ";; wrote %d trace events (%d kinds, %d dropped) to %s@."
                  (Epic_obs.Trace.total tr)
                  (Epic_obs.Trace.distinct_kinds tr)
                  (Epic_obs.Trace.dropped tr) f
          | None -> ());
          (match profile_out with
          | Some f ->
              let p = Option.get profile in
              write_json f (Epic_obs.Profile.to_json p);
              if not quiet then
                Fmt.epr ";; wrote %d profile samples (period %d) to %s@."
                  (Epic_obs.Profile.samples p)
                  (Epic_obs.Profile.period p)
                  f
          | None -> ());
          (* with --profile-out the profile lives in its own file; keep the
             main document's profile field null rather than duplicating *)
          let json_profile = if profile_out = None then profile else None in
          let ref_code, ref_out = reference in
          Session.outcome ~code ~output:out
            (Epic_core.Metrics.of_machine ~workload ?profile:json_profile
               compiled st
               ~output_matches:(code = ref_code && out = ref_out))
        end
        else begin
          let sp =
            if sample_period > 0 then sample_period
            else if json_wanted then Epic_core.Experiments.sample_period
            else 0
          in
          let o, _run_hit =
            Session.run session ?sampling ~sample_period:sp ~workload
              ~reference ~key compiled input
          in
          o
        end
      in
      print_string outcome.Session.o_output;
      (config, outcome)

let run_cmd files levels sentinel no_pa inputs train dump_ir show_loops quiet
    json_file normalize trace_file sample_period profile_out sample_sim =
  let levels = match levels with [] -> [ Epic_core.Config.ILP_CS ] | l -> l in
  let sampling =
    match sample_sim with
    | None -> None
    | Some spec -> (
        try Some (Epic_sim.Sampling.parse_spec spec)
        with Invalid_argument m ->
          Fmt.epr "epicc: %s@." m;
          exit 2)
  in
  let input = Array.of_list (List.map Int64.of_int inputs) in
  let train =
    match train with
    | Some t -> Array.of_list (List.map Int64.of_int t)
    | None -> input
  in
  let cells = List.concat_map (fun f -> List.map (fun l -> (f, l)) levels) files in
  let single = match cells with [ _ ] -> true | _ -> false in
  if (not single) && (dump_ir || show_loops || trace_file <> None || profile_out <> None)
  then begin
    Fmt.epr "epicc: --dump-ir, --loops, --trace and --profile-out need a single FILE and level@.";
    exit 2
  end;
  let session = Session.create () in
  let results =
    List.map
      (fun (file, level) ->
        run_cell session ~file ~level ~sentinel ~no_pa ~input ~train ~dump_ir
          ~show_loops ~quiet ~json_wanted:(json_file <> None) ~trace_file
          ~sample_period ~profile_out ~sampling)
      cells
  in
  (match json_file with
  | Some f ->
      let run_doc (_, (o : Session.outcome)) =
        Epic_core.Export.run_to_json o.Session.o_metrics
      in
      let doc =
        match results with
        | [ r ] -> (
            (* single run: the historical flat run document, plus the
               session counters *)
            match run_doc r with
            | Epic_obs.Json.Obj fields ->
                Epic_obs.Json.Obj
                  (fields @ [ ("session", Session.stats_to_json session) ])
            | j -> j)
        | rs ->
            Epic_obs.Json.Obj
              [
                ("runs", Epic_obs.Json.List (List.map run_doc rs));
                ("session", Session.stats_to_json session);
              ]
      in
      let doc = if normalize then Epic_core.Export.normalize_time doc else doc in
      write_json f doc;
      if not quiet then Fmt.epr ";; wrote run metrics to %s@." f
  | None -> ());
  if not quiet then begin
    List.iter (fun (config, o) -> print_counters config o) results;
    let s = Session.stats session in
    if List.length results > 1 || s.Session.st_compile_hits > 0 then
      Fmt.epr ";; session: compile %d hits / %d misses, run %d hits / %d misses@."
        s.Session.st_compile_hits s.Session.st_compile_misses
        s.Session.st_run_hits s.Session.st_run_misses
  end;
  match results with
  | [ (_, o) ] -> exit o.Session.o_code
  | _ -> exit 0

let cmd =
  let doc = "compile mini-C for an Itanium-2-class EPIC machine and simulate it" in
  Cmd.v
    (Cmd.info "epicc" ~doc)
    Term.(
      const run_cmd $ files $ levels $ sentinel $ no_pa $ inputs $ train
      $ dump_ir $ show_loops $ quiet $ json_file $ normalize_time $ trace_file
      $ sample_period $ profile_out $ sample_sim)

let () = exit (Cmd.eval cmd)
