(* Simulator-throughput harness: measures how fast the *host* executes the
   machine simulator, in simulated cycles per host second and retired
   useful-operations MIPS, plus GC allocation pressure.  This is the repo's
   host-performance trajectory: the architectural numbers (cycles, stall
   categories) are invariants guarded elsewhere; this harness guards the
   cost of producing them.

     dune exec bench/simspeed.exe                               # default trio
     dune exec bench/simspeed.exe -- --workloads gzip,twolf
     dune exec bench/simspeed.exe -- --json simspeed.json
     dune exec bench/simspeed.exe -- --check simspeed-baseline.json
     dune exec bench/simspeed.exe -- --sampled --min-speedup 1.5

   `--check FILE` compares per-workload simulated-cycles-per-host-second
   against a stored baseline and fails (exit 1) when any workload is more
   than `--max-slowdown` (default 2.0) times slower — a deliberately
   generous threshold so the CI gate only trips on genuine regressions,
   not on runner noise.  Every measured ratio is printed, pass or fail,
   plus a final verdict line, so a CI log is diagnosable without
   re-running.  Compile time is excluded: only `Driver.run` is timed.
   `--repeat N` (default 1) takes the best of N runs to damp host-side
   noise; the simulated cycle count is asserted identical across repeats
   (the engines are deterministic).

   `--sampled[=I:D[:W]]` additionally times each workload under interval
   sampling (default: the tuned default plan) and prints the per-workload
   wall-clock speedup over the detailed run; `--min-speedup X` fails
   (exit 1) when the geomean speedup falls below X. *)

let default_workloads = [ "gzip"; "twolf"; "vortex" ]

type row = {
  name : string;
  cycles : float; (* simulated cycles (architectural, deterministic) *)
  useful_ops : int;
  wall_s : float; (* best-of-N wall-clock seconds for the simulation *)
  sim_mcycles_per_s : float;
  retired_mips : float;
  minor_words : float; (* GC words allocated during the measured run *)
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let measure ?sampling ~repeat (w : Epic_workloads.Workload.t) =
  let config =
    {
      (Epic_core.Config.make Epic_core.Config.ILP_CS) with
      Epic_core.Config.pointer_analysis = w.Epic_workloads.Workload.pointer_analysis;
    }
  in
  let compiled =
    Epic_core.Driver.compile ~config ~train:w.Epic_workloads.Workload.train
      w.Epic_workloads.Workload.source
  in
  let input = w.Epic_workloads.Workload.reference in
  let best = ref infinity in
  let cycles = ref 0. in
  let ops = ref 0 in
  let minor = ref 0. and major = ref 0. in
  let minor_c = ref 0 and major_c = ref 0 in
  for k = 1 to repeat do
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let _, _, st = Epic_core.Driver.run ?sampling compiled input in
    let dt = Unix.gettimeofday () -. t0 in
    let g1 = Gc.quick_stat () in
    let c = Epic_sim.Accounting.total st.Epic_sim.Machine.acc in
    if k > 1 && c <> !cycles then begin
      Printf.eprintf "FATAL: %s simulated %.0f cycles on repeat %d but %.0f before\n"
        w.Epic_workloads.Workload.short c k !cycles;
      exit 2
    end;
    cycles := c;
    ops := st.Epic_sim.Machine.c.Epic_sim.Machine.useful_ops;
    if dt < !best then begin
      best := dt;
      minor := g1.Gc.minor_words -. g0.Gc.minor_words;
      major := g1.Gc.major_words -. g0.Gc.major_words;
      minor_c := g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_c := g1.Gc.major_collections - g0.Gc.major_collections
    end
  done;
  let wall = max !best 1e-9 in
  {
    name = w.Epic_workloads.Workload.short;
    cycles = !cycles;
    useful_ops = !ops;
    wall_s = wall;
    sim_mcycles_per_s = !cycles /. wall /. 1e6;
    retired_mips = float_of_int !ops /. wall /. 1e6;
    minor_words = !minor;
    major_words = !major;
    minor_collections = !minor_c;
    major_collections = !major_c;
  }

let row_to_json (r : row) =
  Epic_obs.Json.Obj
    [
      ("workload", Epic_obs.Json.Str r.name);
      ("cycles", Epic_obs.Json.Float r.cycles);
      ("useful_ops", Epic_obs.Json.Int r.useful_ops);
      ("wall_s", Epic_obs.Json.Float r.wall_s);
      ("sim_mcycles_per_s", Epic_obs.Json.Float r.sim_mcycles_per_s);
      ("retired_mips", Epic_obs.Json.Float r.retired_mips);
      ("minor_words", Epic_obs.Json.Float r.minor_words);
      ("major_words", Epic_obs.Json.Float r.major_words);
      ("minor_collections", Epic_obs.Json.Int r.minor_collections);
      ("major_collections", Epic_obs.Json.Int r.major_collections);
    ]

let geomean = function
  | [] -> 0.
  | xs ->
      let n = float_of_int (List.length xs) in
      exp (List.fold_left (fun a x -> a +. log (max x 1e-12)) 0. xs /. n)

let () =
  let workloads = ref default_workloads in
  let json_file = ref None in
  let check_file = ref None in
  let max_slowdown = ref 2.0 in
  let repeat = ref 1 in
  let sampled = ref None in
  let min_speedup = ref 0. in
  let rec parse = function
    | "--workloads" :: v :: rest ->
        workloads := String.split_on_char ',' v;
        parse rest
    | "--json" :: f :: rest ->
        json_file := Some f;
        parse rest
    | "--check" :: f :: rest ->
        check_file := Some f;
        parse rest
    | "--max-slowdown" :: v :: rest ->
        (match float_of_string_opt v with
        | Some x when x > 0. -> max_slowdown := x
        | _ ->
            Printf.eprintf "--max-slowdown expects a positive number, got %S\n" v;
            exit 2);
        parse rest
    | "--repeat" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> repeat := n
        | _ ->
            Printf.eprintf "--repeat expects a positive integer, got %S\n" v;
            exit 2);
        parse rest
    | "--sampled" :: rest ->
        sampled := Some Epic_sim.Sampling.default_plan;
        parse rest
    | a :: rest when String.length a > 10 && String.sub a 0 10 = "--sampled=" ->
        (match
           Epic_sim.Sampling.parse_spec (String.sub a 10 (String.length a - 10))
         with
        | p -> sampled := Some p
        | exception Invalid_argument m ->
            Printf.eprintf "%s\n" m;
            exit 2);
        parse rest
    | "--min-speedup" :: v :: rest ->
        (match float_of_string_opt v with
        | Some x when x >= 0. -> min_speedup := x
        | _ ->
            Printf.eprintf "--min-speedup expects a non-negative number, got %S\n" v;
            exit 2);
        parse rest
    | a :: _ ->
        Printf.eprintf "unknown argument %S\n" a;
        exit 2
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let rows =
    List.map
      (fun n ->
        match Epic_workloads.Suite.find n with
        | Some w ->
            Printf.eprintf "simspeed: %s (ILP-CS)...\n%!" n;
            measure ~repeat:!repeat w
        | None ->
            Printf.eprintf "unknown workload %S\nknown: %s\n" n
              (String.concat " " Epic_workloads.Suite.names);
            exit 2)
      !workloads
  in
  Printf.printf "%-10s %14s %10s %12s %12s %14s %8s\n" "workload" "sim cycles"
    "host s" "Mcycles/s" "retired MIPS" "minor words" "minGCs";
  List.iter
    (fun r ->
      Printf.printf "%-10s %14.0f %10.3f %12.2f %12.2f %14.0f %8d\n" r.name
        r.cycles r.wall_s r.sim_mcycles_per_s r.retired_mips r.minor_words
        r.minor_collections)
    rows;
  let geo = geomean (List.map (fun r -> r.sim_mcycles_per_s) rows) in
  Printf.printf "%-10s %52.2f\n" "geomean" geo;
  (* Sampled-path timing: re-measure each workload under interval sampling
     and report the wall-clock speedup over the detailed run just taken. *)
  let sampled_rows =
    match !sampled with
    | None -> []
    | Some plan ->
        Printf.printf "\nsampled path (%s):\n"
          (Epic_sim.Sampling.key_fragment plan);
        Printf.printf "%-10s %10s %10s %9s %14s\n" "workload" "full s"
          "sampled s" "speedup" "est cycles";
        let srows =
          List.map2
            (fun name full ->
              let w = Option.get (Epic_workloads.Suite.find name) in
              Printf.eprintf "simspeed: %s (sampled)...\n%!" name;
              let s = measure ~sampling:plan ~repeat:!repeat w in
              let speedup = full.wall_s /. s.wall_s in
              Printf.printf "%-10s %10.3f %10.3f %8.2fx %14.0f\n" name
                full.wall_s s.wall_s speedup s.cycles;
              (name, s, speedup))
            !workloads rows
        in
        let sgeo = geomean (List.map (fun (_, _, sp) -> sp) srows) in
        Printf.printf "%-10s %31.2fx\n" "geomean" sgeo;
        if !min_speedup > 0. then
          if sgeo < !min_speedup then begin
            Printf.printf
              "sampled speedup: FAIL (geomean %.2fx < required %.2fx)\n" sgeo
              !min_speedup;
            exit 1
          end
          else
            Printf.printf
              "sampled speedup: PASS (geomean %.2fx >= required %.2fx)\n" sgeo
              !min_speedup;
        srows
  in
  (match !json_file with
  | None -> ()
  | Some f ->
      Epic_obs.Json.to_file f
        (Epic_obs.Json.Obj
           ([
              ("bench", Epic_obs.Json.Str "simspeed");
              ("level", Epic_obs.Json.Str "ILP-CS");
              ("geomean_sim_mcycles_per_s", Epic_obs.Json.Float geo);
              ("rows", Epic_obs.Json.List (List.map row_to_json rows));
            ]
           @
           match (!sampled, sampled_rows) with
           | Some plan, (_ :: _ as srows) ->
               [
                 ( "sampled",
                   Epic_obs.Json.Obj
                     [
                       ( "plan",
                         Epic_obs.Json.Str
                           (Epic_sim.Sampling.key_fragment plan) );
                       ( "geomean_speedup",
                         Epic_obs.Json.Float
                           (geomean
                              (List.map (fun (_, _, sp) -> sp) srows)) );
                       ( "rows",
                         Epic_obs.Json.List
                           (List.map
                              (fun (_, r, sp) ->
                                match row_to_json r with
                                | Epic_obs.Json.Obj fields ->
                                    Epic_obs.Json.Obj
                                      (fields
                                      @ [
                                          ( "speedup",
                                            Epic_obs.Json.Float sp );
                                        ])
                                | j -> j)
                              srows) );
                     ] );
               ]
           | _ -> []));
      Printf.eprintf "wrote %s\n%!" f);
  match !check_file with
  | None -> ()
  | Some f ->
      let doc =
        match
          In_channel.with_open_text f In_channel.input_all
          |> Epic_obs.Json.of_string
        with
        | Ok j -> j
        | Error e ->
            Printf.eprintf "cannot parse %s: %s\n" f e;
            exit 2
      in
      let baseline_rate name =
        match Epic_obs.Json.member "rows" doc with
        | Some (Epic_obs.Json.List l) ->
            List.find_map
              (fun r ->
                match
                  ( Epic_obs.Json.member "workload" r,
                    Epic_obs.Json.member "sim_mcycles_per_s" r )
                with
                | Some (Epic_obs.Json.Str n), Some v
                  when n = name ->
                    Epic_obs.Json.to_float_opt v
                | _ -> None)
              l
        | _ -> None
      in
      (* Print every measured ratio, pass or fail, then one verdict line:
         a CI log must be diagnosable without re-running the bench. *)
      let failed = ref false in
      let worst = ref 0. in
      Printf.printf "\ncheck against %s (threshold %.1fx):\n" f !max_slowdown;
      List.iter
        (fun r ->
          match baseline_rate r.name with
          | None ->
              Printf.printf "  %-10s %-4s no baseline entry (skipped)\n"
                r.name "-"
          | Some b ->
              let ratio = b /. max r.sim_mcycles_per_s 1e-12 in
              if ratio > !worst then worst := ratio;
              let over = ratio > !max_slowdown in
              if over then failed := true;
              Printf.printf
                "  %-10s %-4s %8.2f Mcycles/s vs baseline %8.2f (%.2fx \
                 slowdown)\n"
                r.name
                (if over then "FAIL" else "ok")
                r.sim_mcycles_per_s b ratio)
        rows;
      Printf.printf "check: %s (worst slowdown %.2fx, threshold %.1fx)\n"
        (if !failed then "FAIL" else "PASS")
        !worst !max_slowdown;
      if !failed then exit 1
