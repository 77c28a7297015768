(* Causal-profiling driver: run the COZ-style virtual-speedup matrix and
   print (and optionally export) the ranked "optimize this next" report.
   See lib/causal/causal.mli. *)

let usage =
  "causal [--workloads a,b,..] [--targets t,..] [--factors 10,25,..] [-j N]\n\
  \       [--split N] [--big-inputs] [--json FILE]\n\
  \       [--normalize-time] [--check] [--read-check] [--list]\n\n\
   Runs each workload (default: gzip,twolf) under a matrix of virtual\n\
   speedups — per target, the cycles charged to it are scaled by\n\
   (1 - factor) while the machine evolves untouched — and ranks targets\n\
   by causal slope: predicted end-to-end gain per unit of local speedup.\n\
   Targets are stall-category names (see --list), workload function\n\
   names, or func:category pairs; omitted, each workload plans its own\n\
   (top profiled functions plus its nonzero stall categories, plus —\n\
   with --split N — per-(function, category) splits of the N hottest\n\
   functions).  Factors are percentages (default 10,25,50,100).\n\
   The whole grid is read off each workload's one baseline simulation;\n\
   --read-check re-simulates every workload outside the session and\n\
   exits 1 unless every cell is bit-identical to the experiment read off\n\
   that plain run and the grid had >= 5 cells per simulation.  Both\n\
   sides use the same read (Accounting.apply, Sampling.read): the read\n\
   itself is guarded by test_golden's experiment pins and test_causal's\n\
   scaled-charge oracle, not by --read-check.\n\
   --big-inputs substitutes the ~10x scaled evaluation inputs.\n\
   --check adds factor 100 if absent and exits 1 unless every target\n\
   (category, function or func:category) saves at factor 100 exactly\n\
   the cycles the baseline charged to it.  -j defaults to the machine's\n\
   recommended domain count."

let split_commas s = String.split_on_char ',' s |> List.filter (( <> ) "")

let die msg =
  prerr_endline msg;
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let workloads = ref [ "gzip"; "twolf" ] in
  let sel_targets = ref None in
  let factors = ref Epic_causal.Causal.default_factors in
  let split = ref 0 in
  let jobs = ref 0 (* 0 = auto *) in
  let json_file = ref None in
  let normalize = ref false in
  let check = ref false in
  let big_inputs = ref false in
  let read_check = ref false in
  let list_only = ref false in
  let rec parse = function
    | [] -> ()
    | ("-h" | "--help") :: _ ->
        print_endline usage;
        exit 0
    | "--list" :: rest ->
        list_only := true;
        parse rest
    | "--workloads" :: v :: rest ->
        workloads := split_commas v;
        parse rest
    | "--targets" :: v :: rest ->
        sel_targets :=
          Some (List.map Epic_causal.Causal.parse_target (split_commas v));
        parse rest
    | "--factors" :: v :: rest ->
        factors :=
          List.map
            (fun s ->
              match float_of_string_opt s with
              | Some p when p > 0. && p <= 100. -> p /. 100.
              | _ -> die (Printf.sprintf "causal: bad factor %S (percent in (0,100])" s))
            (split_commas v);
        parse rest
    | "--split" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 0 -> split := n
        | _ -> die (Printf.sprintf "causal: bad --split %S" v));
        parse rest
    | ("-j" | "--jobs") :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> jobs := n
        | _ -> die usage);
        parse rest
    | "--json" :: f :: rest ->
        json_file := Some f;
        parse rest
    | "--normalize-time" :: rest ->
        normalize := true;
        parse rest
    | "--check" :: rest ->
        check := true;
        parse rest
    | "--big-inputs" :: rest ->
        big_inputs := true;
        parse rest
    | "--read-check" :: rest ->
        read_check := true;
        parse rest
    | a :: _ -> die (Printf.sprintf "causal: unknown argument %S\n%s" a usage)
  in
  parse args;
  let open Epic_causal.Causal in
  if !list_only then begin
    (* the same vocabulary sweep.exe --list prints, from the same tables *)
    Fmt.pr "category targets (program-wide stall charges):@.";
    List.iter
      (fun c ->
        Fmt.pr "  %-18s@." (Epic_sim.Accounting.name c))
      (List.filter
         (fun c -> c <> Epic_sim.Accounting.Unstalled)
         Epic_sim.Accounting.all_categories);
    Fmt.pr "function targets: any function name of the workload@.";
    exit 0
  end;
  (* --check reads every target's factor-1.0 point *)
  if !check && not (List.mem 1.0 !factors) then factors := !factors @ [ 1.0 ];
  let jobs =
    if !jobs >= 1 then !jobs
    else min (Domain.recommended_domain_count ()) (max 1 (4 * List.length !workloads))
  in
  let session = Epic_serve.Session.create ~jobs () in
  let report =
    try
      run ?targets:!sel_targets ~factors:!factors ~split_funcs:!split
        ~big_inputs:!big_inputs ~progress:true
        ~workloads:!workloads
        (Epic_serve.Session.backend session)
    with Invalid_argument msg -> die ("causal: " ^ msg)
  in
  print_report Fmt.stdout report;
  (match mismatches report with
  | [] -> ()
  | l ->
      List.iter
        (fun (w, t, f) ->
          Fmt.epr "MISMATCH: %s / %s / %g diverged from the reference@." w
            (target_name t) f)
        l;
      exit 1);
  (match !json_file with
  | Some f ->
      let d = to_json report in
      let d = if !normalize then Epic_core.Export.normalize_time d else d in
      Epic_obs.Json.to_file f d;
      Fmt.pr "@.wrote %s@." f
  | None -> ());
  if !read_check then begin
    (* the CI gate: simulate each workload again, plainly and outside the
       session, and demand that every cell equal, bitwise, its experiment
       read off that run — the matrix must be a pure function of a plain
       simulation *)
    let open Epic_core in
    let bits = Int64.bits_of_float in
    let diffs = ref [] in
    let bad fmt = Fmt.kstr (fun s -> diffs := s :: !diffs) fmt in
    let cells = ref 0 in
    List.iter
      (fun wr ->
        let w = Epic_workloads.Suite.find_exn wr.c_workload in
        let w = if !big_inputs then Epic_workloads.Workload.scale w else w in
        let compiled =
          Driver.compile ~config:(Experiments.config_for w Config.ILP_CS)
            ~train:w.Epic_workloads.Workload.train w.Epic_workloads.Workload.source
        in
        let _, _, st = Driver.run compiled w.Epic_workloads.Workload.reference in
        let plain = Epic_sim.Accounting.total st.Epic_sim.Machine.acc in
        if bits wr.c_base_cycles <> bits plain then
          bad "%s: baseline cycles %h vs plain run %h" wr.c_workload
            wr.c_base_cycles plain;
        List.iter
          (fun k ->
            List.iter
              (fun p ->
                incr cells;
                let read =
                  Epic_sim.Accounting.total
                    (Epic_sim.Machine.read st
                       { Epic_sim.Accounting.target = k.k_target; speedup = p.p_factor })
                in
                if bits p.p_cycles <> bits read then
                  bad "%s / %s / %g: matrix %h vs read off a plain run %h"
                    wr.c_workload (target_name k.k_target) p.p_factor
                    p.p_cycles read)
              k.k_points)
          wr.c_curves)
      report.r_reports;
    let gr = report.r_grid in
    if gr.gr_cells < 5 * gr.gr_sims then
      bad "cells_per_sim %.1f < 5 (%d cells from %d sims)"
        (float_of_int gr.gr_cells /. float_of_int (max 1 gr.gr_sims))
        gr.gr_cells gr.gr_sims;
    List.iter (fun d -> Fmt.pr "read-check: MISMATCH %s@." d) !diffs;
    if !diffs <> [] then exit 1;
    Fmt.pr
      "read-check: %d cells bit-identical to reads of plain runs; %d cells \
       from %d sims (%.1f cells/sim, %d sims saved)@."
      !cells gr.gr_cells gr.gr_sims
      (float_of_int gr.gr_cells /. float_of_int (max 1 gr.gr_sims))
      (gr.gr_cells - gr.gr_sims)
  end;
  if !check then begin
    (* the factor-1.0 identity: for every measured target of every kind —
       category, function, func:category — scaling its charges to zero
       must save exactly the cycles the baseline charged to it *)
    let local = check_local_exactness report in
    let bad_local = List.filter (fun r -> not r.lk_ok) local in
    List.iter
      (fun r ->
        Fmt.pr "check %s: %s local exactness: causal %.0f vs local %.0f -> %s@."
          r.lk_workload (target_name r.lk_target) r.lk_causal r.lk_local
          (if r.lk_ok then "exact" else "INEXACT"))
      local;
    if bad_local <> [] then exit 1;
    Fmt.pr "check: %d factor-1.0 targets locally exact@." (List.length local)
  end
