(* Machine-sensitivity sweep driver: run a matrix of machine-description
   variants x compiler ablations over the workload suite and print (and
   optionally export) the sensitivity report.  See lib/sweep/sweep.mli. *)

let usage =
  "sweep [--workloads a,b,..] [--variants v,..] [--ablations a,..] [-j N]\n\
  \      [--sample-sim[=I:D[:W]]] [--big-inputs] [--json FILE]\n\
  \      [--normalize-time] [--check BASELINE] [--list]\n\n\
   Runs every named machine variant (default: all six) against the\n\
   itanium2 x ILP-CS baseline on the given workloads (default: gzip,twolf)\n\
   and reports per-cell cycle and stall-category deltas plus a geomean\n\
   tornado.  --check diffs the normalized JSON against a stored baseline\n\
   and exits 1 on any difference.  -j defaults to the machine's\n\
   recommended domain count (capped at the job count by the pool).\n\
   --sample-sim runs every cell under interval sampling (cycles become\n\
   extrapolated estimates within the EXPERIMENTS.md accuracy budget);\n\
   sampled reports are not comparable to full-simulation baselines.\n\
   The perfect-icache and perfect-predictor variants are factor-1.0\n\
   category experiments: each rides the itanium2 simulation of its\n\
   ablation instead of running one of its own.  --big-inputs\n\
   substitutes the ~10x scaled evaluation inputs."

let split_commas s = String.split_on_char ',' s |> List.filter (( <> ) "")

let die msg =
  prerr_endline msg;
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let workloads = ref [ "gzip"; "twolf" ] in
  let sel_variants = ref (List.map (fun v -> v.Epic_sweep.Sweep.v_name) Epic_sweep.Sweep.variants) in
  let sel_ablations = ref [ Epic_sweep.Sweep.baseline_ablation.Epic_sweep.Sweep.a_name ] in
  let jobs = ref 0 (* 0 = auto: recommended domain count *) in
  let json_file = ref None in
  let normalize = ref false in
  let check_file = ref None in
  let list_only = ref false in
  let sampling = ref None in
  let big_inputs = ref false in
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
    | "--variants" :: v :: rest ->
        sel_variants := split_commas v;
        parse rest
    | "--ablations" :: v :: rest ->
        sel_ablations := split_commas v;
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
    | "--check" :: f :: rest ->
        check_file := Some f;
        parse rest
    | "--big-inputs" :: rest ->
        big_inputs := true;
        parse rest
    | "--sample-sim" :: rest ->
        sampling := Some Epic_sim.Sampling.default_plan;
        parse rest
    | a :: rest when String.length a > 13 && String.sub a 0 13 = "--sample-sim=" ->
        (match
           Epic_sim.Sampling.parse_spec
             (String.sub a 13 (String.length a - 13))
         with
        | p -> sampling := Some p
        | exception Invalid_argument m -> die ("sweep: " ^ m));
        parse rest
    | a :: _ -> die (Printf.sprintf "sweep: unknown argument %S\n%s" a usage)
  in
  parse args;
  let open Epic_sweep.Sweep in
  if !list_only then begin
    (* every machine variant and every compiler ablation, baseline rows
       included, each with the one-line "what it isolates" description *)
    Fmt.pr "variants:@.";
    List.iter
      (fun v -> Fmt.pr "  %-18s %s@." v.v_name v.v_isolates)
      (Epic_sweep.Sweep.baseline_variant :: Epic_sweep.Sweep.variants);
    Fmt.pr "ablations:@.";
    List.iter
      (fun a -> Fmt.pr "  %-18s %s@." a.a_name a.a_isolates)
      Epic_sweep.Sweep.ablations;
    exit 0
  end;
  let lookup kind find names =
    List.map
      (fun n ->
        match find n with
        | Some x -> x
        | None -> die (Printf.sprintf "sweep: unknown %s %S" kind n))
      names
  in
  let vs = lookup "variant" find_variant !sel_variants in
  let abs_ = lookup "ablation" find_ablation !sel_ablations in
  let jobs =
    if !jobs >= 1 then !jobs
    else
      (* cap at the cell count: the pool never spawns more domains than
         jobs anyway, but don't ask for more than there is work *)
      let cells = List.length !workloads * (1 + List.length vs * List.length abs_) in
      min (Domain.recommended_domain_count ()) (max 1 cells)
  in
  (* the matrix runs through a session: its compile cache dedupes the
     shared (workload, baseline-config) compiles across cells *)
  let session = Epic_serve.Session.create ~jobs () in
  let report =
    try
      run ~variants:vs ~ablations:abs_ ?sampling:!sampling
        ~big_inputs:!big_inputs ~progress:true ~workloads:!workloads
        (Epic_serve.Session.backend session)
    with Invalid_argument msg -> die ("sweep: " ^ msg)
  in
  print_report Fmt.stdout report;
  (match mismatches report with
  | [] -> ()
  | l ->
      List.iter
        (fun c ->
          Fmt.epr "MISMATCH: %s / %s / %s diverged from the reference@."
            c.c_workload c.c_variant c.c_ablation)
        l;
      exit 1);
  let doc () =
    let d = to_json report in
    if !normalize then Epic_core.Export.normalize_time d else d
  in
  (match !json_file with
  | Some f ->
      Epic_obs.Json.to_file f (doc ());
      Fmt.pr "@.wrote %s@." f
  | None -> ());
  match !check_file with
  | None -> ()
  | Some f ->
      let stored =
        match
          In_channel.with_open_text f In_channel.input_all
          |> Epic_obs.Json.of_string
        with
        | Ok j -> j
        | Error e -> die (Printf.sprintf "sweep: cannot parse %s: %s" f e)
      in
      (* compare wall-normalized on both sides so a stored baseline always
         diffs cleanly against a fresh run *)
      let norm j =
        Epic_obs.Json.to_string ~pretty:true (Epic_core.Export.normalize_time j)
      in
      let a = norm stored and b = norm (to_json report) in
      if a = b then Fmt.pr "check: %s matches@." f
      else begin
        let la = String.split_on_char '\n' a
        and lb = String.split_on_char '\n' b in
        let rec first_diff i = function
          | x :: xs, y :: ys ->
              if x = y then first_diff (i + 1) (xs, ys)
              else Some (i, x, y)
          | [], y :: _ -> Some (i, "<end>", y)
          | x :: _, [] -> Some (i, x, "<end>")
          | [], [] -> None
        in
        (match first_diff 1 (la, lb) with
        | Some (i, x, y) ->
            Fmt.epr "check: %s differs at line %d@.  stored:  %s@.  current: %s@."
              f i (String.trim x) (String.trim y)
        | None -> ());
        exit 1
      end
