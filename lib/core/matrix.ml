(* The experiment matrix: every experiment of the repo is a cell list run
   here, in four steps — one reference interpretation per distinct
   (source, input), one simulation per group of cells that share a compile
   key, an input, a plan and instruments, the simulations on the domain
   pool with each cell's reducer (and its experiments, read off the run)
   in the simulating domain, and the results back in cell order.  See
   matrix.mli and DESIGN.md §14. *)

open Epic_workloads
module Acc = Epic_sim.Accounting

type backend = {
  jobs : int;
  compile :
    config:Config.t ->
    desc:Epic_mach.Machine_desc.t option ->
    train:int64 array ->
    string ->
    Driver.compiled;
  reference : source:string -> input:int64 array -> int * string;
}

let direct ~jobs =
  {
    jobs;
    compile =
      (fun ~config ~desc ~train source -> Driver.compile ~config ?desc ~train source);
    reference =
      (fun ~source ~input ->
        let p = Epic_frontend.Lower.compile_source source in
        let code, out, _ = Epic_ir.Interp.run p input in
        (code, out));
  }

type plan = Full | Sampled of Epic_sim.Sampling.plan

type sim = {
  compiled : Driver.compiled;
  code : int;
  output : string;
  output_ok : bool;
  accounts : float array array;
  machine : Epic_sim.Machine.t;
  trace : Epic_obs.Trace.t option;
  profile : Epic_obs.Profile.t option;
  host : Metrics.host_stats;
}

type 'r cell = {
  workload : Workload.t;
  config : Config.t;
  desc : Epic_mach.Machine_desc.t option;
  train : int64 array;
  input : int64 array;
  experiments : Acc.experiment list;
  plan : plan;
  traced : bool;
  period : int;
  reduce : sim -> 'r;
}

let cell (w : Workload.t) config reduce =
  {
    workload = w;
    config;
    desc = None;
    train = w.Workload.train;
    input = w.Workload.reference;
    experiments = [];
    plan = Full;
    traced = false;
    period = 0;
    reduce;
  }

(* [xs] grouped by [key]; groups, and members within a group, in
   first-appearance order. *)
let group key xs =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt tbl k with
      | Some members -> members := x :: !members
      | None ->
          let members = ref [ x ] in
          Hashtbl.add tbl k members;
          order := members :: !order)
    xs;
  List.rev_map (fun members -> List.rev !members) !order

(* One simulation: compile, run, then reduce each member on its own
   experiments read off the run (the plain accounting when it has none). *)
let simulate ~progress (b : backend) (ref_code, ref_out) members =
  let c = snd (List.hd members) in
  if progress then
    Fmt.epr "  %s / %s%s (%d experiments)...@." c.workload.Workload.short
      (Config.name c.config)
      (match c.desc with Some d -> " / " ^ d.Epic_mach.Machine_desc.name | None -> "")
      (List.fold_left (fun n (_, m) -> n + List.length m.experiments) 0 members);
  let compiled =
    b.compile ~config:c.config ~desc:c.desc ~train:c.train c.workload.Workload.source
  in
  let trace = if c.traced then Some (Epic_obs.Trace.create ()) else None in
  let profile =
    if c.period > 0 then Some (Epic_obs.Profile.create ~period:c.period ())
    else None
  in
  let sampling = match c.plan with Sampled p -> Some p | Full -> None in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let code, output, st = Driver.run ?trace ?profile ?sampling compiled c.input in
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
  let output_ok = code = ref_code && String.equal output ref_out in
  List.map
    (fun (i, m) ->
      let accounts =
        match m.experiments with
        | [] -> [| Array.copy st.Epic_sim.Machine.acc.Acc.totals |]
        | es ->
            Array.of_list
              (List.map (fun e -> (Epic_sim.Machine.read st e).Acc.totals) es)
      in
      ( i,
        m.reduce
          { compiled; code; output; output_ok; accounts; machine = st; trace; profile; host } ))
    members

let run ?(progress = false) (b : backend) cells =
  let indexed = List.mapi (fun i c -> (i, c)) cells in
  (* 1: one reference interpretation per distinct (source, input) *)
  let inputs =
    Array.of_list
      (group (fun (_, c) -> (c.workload.Workload.source, c.input)) indexed)
  in
  let references =
    Pool.map ~jobs:b.jobs
      (fun members ->
        let c = snd (List.hd members) in
        if progress then Fmt.epr "  reference %s...@." c.workload.Workload.short;
        b.reference ~source:c.workload.Workload.source ~input:c.input)
      inputs
  in
  let reference_of = Array.make (List.length cells) 0 in
  Array.iteri
    (fun g members -> List.iter (fun (i, _) -> reference_of.(i) <- g) members)
    inputs;
  (* 2: one simulation per (compile key, input, plan, instruments) *)
  let sims =
    group
      (fun (_, c) ->
        ( c.workload.Workload.source,
          c.config,
          c.desc,
          c.train,
          c.input,
          c.plan,
          c.traced,
          c.period ))
      indexed
  in
  (* 3: simulate and reduce on the pool *)
  let reduced =
    Pool.map ~jobs:b.jobs
      (fun members ->
        simulate ~progress b references.(reference_of.(fst (List.hd members))) members)
      (Array.of_list sims)
  in
  (* 4: cell order *)
  let results = Array.make (List.length cells) None in
  Array.iter (List.iter (fun (i, r) -> results.(i) <- Some r)) reduced;
  (Array.map Option.get results, List.length sims)
