(* Compile-time reporter: compiles every suite workload at ILP-CS and prints
   the per-workload compiler wall time (from the per-pass instrumentation
   records), a per-pass total across the suite, and — once the analysis
   cache is in place — the cache hit/miss totals per analysis.

     dune exec bench/compile_time.exe

   Used to compare suite compile time before and after pass-manager /
   analysis-cache changes. *)

open Epic_workloads

let () =
  let totals : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  let suite_wall = ref 0. in
  List.iter
    (fun (w : Workload.t) ->
      let config =
        {
          (Epic_core.Config.make Epic_core.Config.ILP_CS) with
          Epic_core.Config.pointer_analysis = w.Workload.pointer_analysis;
        }
      in
      let t0 = Unix.gettimeofday () in
      let c =
        Epic_core.Driver.compile ~config ~train:w.Workload.train
          w.Workload.source
      in
      let dt = Unix.gettimeofday () -. t0 in
      suite_wall := !suite_wall +. dt;
      let pass_wall =
        List.fold_left
          (fun a (r : Epic_obs.Passes.record) -> a +. r.Epic_obs.Passes.wall_s)
          0. c.Epic_core.Driver.pass_records
      in
      List.iter
        (fun (r : Epic_obs.Passes.record) ->
          let name = r.Epic_obs.Passes.name in
          if not (Hashtbl.mem totals name) then order := name :: !order;
          Hashtbl.replace totals name
            (r.Epic_obs.Passes.wall_s
            +. Option.value ~default:0. (Hashtbl.find_opt totals name)))
        c.Epic_core.Driver.pass_records;
      Fmt.pr "%-10s  compile %7.3fs  (passes %7.3fs)@." w.Workload.short dt
        pass_wall)
    Suite.all;
  Fmt.pr "@.per-pass totals across the ILP-CS suite:@.";
  List.iter
    (fun name ->
      Fmt.pr "  %-32s %8.3fs@." name (Hashtbl.find totals name))
    (List.rev !order);
  Fmt.pr "@.total ILP-CS suite compile wall time: %.3fs@." !suite_wall
