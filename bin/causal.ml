(* Causal-profiling driver: run the COZ-style virtual-speedup matrix and
   print (and optionally export) the ranked "optimize this next" report.
   See lib/causal/causal.mli. *)

let usage =
  "causal [--workloads a,b,..] [--targets t,..] [--factors 10,25,..] [-j N]\n\
  \       [--split N] [--serial] [--big-inputs] [--json FILE]\n\
  \       [--normalize-time] [--check] [--fused-check] [--list]\n\n\
   Runs each workload (default: gzip,twolf) under a matrix of virtual\n\
   speedups — per target, the cycles charged to it are scaled by\n\
   (1 - factor) while the machine evolves untouched — and ranks targets\n\
   by causal slope: predicted end-to-end gain per unit of local speedup.\n\
   Targets are stall-category names (see --list), workload function\n\
   names, or func:category pairs; omitted, each workload plans its own\n\
   (top profiled functions plus its nonzero stall categories, plus —\n\
   with --split N — per-(function, category) splits of the N hottest\n\
   functions).  Factors are percentages (default 10,25,50,100).\n\
   By default the per-workload grid is fused into one simulation\n\
   carrying every experiment; --serial keeps one simulation per cell,\n\
   and --fused-check runs both and exits 1 unless every cell is\n\
   bit-identical and the fused path saved >= 5x simulations.\n\
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
  let serial = ref false in
  let big_inputs = ref false in
  let fused_check = ref false in
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
    | "--serial" :: rest ->
        serial := true;
        parse rest
    | "--big-inputs" :: rest ->
        big_inputs := true;
        parse rest
    | "--fused-check" :: rest ->
        fused_check := true;
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
  (* the whole matrix — baselines, fused grids and serial cells — shares
     one session's content-addressed compile cache *)
  let session = Epic_serve.Session.create ~jobs () in
  if !fused_check && !serial then
    die "causal: --fused-check runs both paths; drop --serial";
  let report =
    try
      run ?targets:!sel_targets ~factors:!factors ~split_funcs:!split
        ~serial:!serial ~big_inputs:!big_inputs ~progress:true
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
  if !fused_check then begin
    (* the CI gate: re-run the whole matrix one-simulation-per-cell and
       demand bitwise identity, cell for cell — the fused path must be a
       pure accounting transformation (the serial cells never route
       through the fused cache, so the comparison is live, not a
       cache-vs-itself tautology) *)
    Fmt.epr "fused-check: re-running the matrix serially...@.";
    let serial_report =
      run ?targets:!sel_targets ~factors:!factors ~split_funcs:!split
        ~serial:true ~big_inputs:!big_inputs ~workloads:!workloads
        (Epic_serve.Session.backend session)
    in
    let bits = Int64.bits_of_float in
    let diffs = ref [] in
    let bad fmt = Fmt.kstr (fun s -> diffs := s :: !diffs) fmt in
    let cells = ref 0 in
    List.iter2
      (fun wf ws ->
        if bits wf.c_base_cycles <> bits ws.c_base_cycles then
          bad "%s: baseline cycles differ (%h vs %h)" wf.c_workload
            wf.c_base_cycles ws.c_base_cycles;
        List.iter
          (fun cf ->
            match curve_of ws cf.k_target with
            | None ->
                bad "%s: target %s missing from the serial report"
                  wf.c_workload (target_name cf.k_target)
            | Some cs ->
                List.iter2
                  (fun pf ps ->
                    incr cells;
                    if
                      bits pf.p_cycles <> bits ps.p_cycles
                      || pf.p_output_ok <> ps.p_output_ok
                    then
                      bad "%s / %s / %g: fused %h vs serial %h%s"
                        wf.c_workload (target_name cf.k_target) pf.p_factor
                        pf.p_cycles ps.p_cycles
                        (if pf.p_output_ok = ps.p_output_ok then ""
                         else " (output flags differ)"))
                  cf.k_points cs.k_points)
          wf.c_curves)
      report.r_reports serial_report.r_reports;
    (match report.r_fusion with
    | None -> bad "the fused run reported no fusion block"
    | Some fz ->
        if fz.fz_cells < 5 * fz.fz_sims then
          bad "cells_per_sim %.1f < 5 (%d cells from %d sims)"
            (float_of_int fz.fz_cells /. float_of_int (max 1 fz.fz_sims))
            fz.fz_cells fz.fz_sims);
    (match serial_report.r_fusion with
    | None -> ()
    | Some _ -> bad "the serial run unexpectedly reported fusion");
    List.iter (fun d -> Fmt.pr "fused-check: MISMATCH %s@." d) !diffs;
    if !diffs <> [] then exit 1;
    (match report.r_fusion with
    | Some fz ->
        Fmt.pr
          "fused-check: %d cells bit-identical to serial; %d cells from %d \
           sims (%.1f cells/sim, %d sims saved)@."
          !cells fz.fz_cells fz.fz_sims
          (float_of_int fz.fz_cells /. float_of_int (max 1 fz.fz_sims))
          (fz.fz_cells - fz.fz_sims)
    | None -> ())
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
