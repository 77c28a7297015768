(* The experiment matrix: every experiment of the repo is a cell list run
   here, in four steps — one reference interpretation per distinct
   (source, input), one simulation per group of cells that share a compile
   key, an input, a plan and instruments, the simulations on the domain
   pool with each cell's reducer in the simulating domain, and the results
   back in cell order.  See matrix.mli and DESIGN.md §14. *)

open Epic_workloads
module Acc = Epic_sim.Accounting

type backend = {
  jobs : int;
  compile :
    config:Config.t ->
    desc:Epic_mach.Machine_desc.t option ->
    train:int64 array ->
    string ->
    Driver.compiled * string;
  reference : source:string -> input:int64 array -> int * string;
  fused :
    key:string ->
    Driver.compiled ->
    experiments:Acc.experiment list ->
    prefix_at:int ->
    int64 array ->
    Driver.fused;
}

let direct ~jobs =
  {
    jobs;
    compile =
      (fun ~config ~desc ~train source ->
        (Driver.compile ~config ?desc ~train source, ""));
    reference =
      (fun ~source ~input ->
        let p = Epic_frontend.Lower.compile_source source in
        let code, out, _ = Epic_ir.Interp.run p input in
        (code, out));
    fused =
      (fun ~key:_ compiled ~experiments ~prefix_at:_ input ->
        let code, output, st = Driver.run ~experiments compiled input in
        Driver.fused_of_machine code output st ~resumed:false);
  }

type plan = Full | Sampled of Epic_sim.Sampling.plan | Prefix of int

type sim = {
  compiled : Driver.compiled;
  code : int;
  output : string;
  output_ok : bool;
  accounts : float array array;
  machine : Epic_sim.Machine.t option;
  trace : Epic_obs.Trace.t option;
  profile : Epic_obs.Profile.t option;
  host : Metrics.host_stats;
  resumed : bool;
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

(* One simulation: compile, run with the members' experiments
   concatenated, then reduce each member on its slice of the accounts. *)
let simulate ~progress (b : backend) (ref_code, ref_out) members =
  let c = snd (List.hd members) in
  let experiments = List.concat_map (fun (_, m) -> m.experiments) members in
  if progress then
    Fmt.epr "  %s / %s%s (%d experiments)...@." c.workload.Workload.short
      (Config.name c.config)
      (match c.desc with Some d -> " / " ^ d.Epic_mach.Machine_desc.name | None -> "")
      (List.length experiments);
  let compiled, key =
    b.compile ~config:c.config ~desc:c.desc ~train:c.train c.workload.Workload.source
  in
  let trace = if c.traced then Some (Epic_obs.Trace.create ()) else None in
  let profile =
    if c.period > 0 then Some (Epic_obs.Profile.create ~period:c.period ())
    else None
  in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let code, output, accounts, machine, resumed =
    match c.plan with
    | Prefix at ->
        let f = b.fused ~key compiled ~experiments ~prefix_at:at c.input in
        (f.Driver.f_code, f.Driver.f_output, f.Driver.f_categories, None, f.Driver.f_resumed)
    | Full | Sampled _ ->
        let sampling = match c.plan with Sampled p -> Some p | _ -> None in
        let code, output, st =
          Driver.run ?trace ?profile ?sampling ~experiments compiled c.input
        in
        let totals (a : Acc.t) = Array.copy a.Acc.totals in
        ( code,
          output,
          Array.map totals (Epic_sim.Machine.fused_accounts st),
          Some st,
          false )
  in
  let wall = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  let sim =
    {
      compiled;
      code;
      output;
      output_ok = code = ref_code && String.equal output ref_out;
      accounts;
      machine;
      trace;
      profile;
      host =
        {
          Metrics.h_wall_s = wall;
          h_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
          h_major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
          h_minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
          h_major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
        };
      resumed;
    }
  in
  let plain () =
    match machine with
    | Some st -> [| Array.copy st.Epic_sim.Machine.acc.Acc.totals |]
    | None -> [||]
  in
  let offset = ref 0 in
  List.map
    (fun (i, m) ->
      let n = List.length m.experiments in
      let accounts = if n = 0 then plain () else Array.sub accounts !offset n in
      offset := !offset + n;
      (i, m.reduce { sim with accounts }))
    members

let run ?(progress = false) ?(merge = true) (b : backend) cells =
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
    if merge then
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
    else List.map (fun x -> [ x ]) indexed
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
