(** The experiment matrix: one planner and executor for every
    compile-and-simulate experiment in the repo.  The paper's suite, the
    Section 4 experiments, the machine-sensitivity sweep, the causal
    matrix and the sampled-simulation accuracy harness are each a list of
    {!cell}s run by {!run} (DESIGN.md §14).

    [run] works in four steps:
    + every distinct (source, run input) pair is interpreted once, through
      the backend's [reference];
    + cells that share a compile key (source, configuration, machine
      description, train input), a run input, a {!plan} and instruments
      merge into one simulation;
    + the simulations run on the {!Pool} at the backend's width; each
      cell's experiments are read off its simulation
      ({!Epic_sim.Machine.read}) and its reducer runs, in the domain that
      simulated it;
    + the reduced results come back in cell order, whatever the width. *)

(** Where compiles and reference interpretations come from.  {!direct}
    builds everything afresh; [Epic_serve.Session.backend] serves both
    from its content-addressed stores. *)
type backend = {
  jobs : int;  (** domain-pool width *)
  compile :
    config:Config.t ->
    desc:Epic_mach.Machine_desc.t option ->
    train:int64 array ->
    string ->
    Driver.compiled;
  reference : source:string -> input:int64 array -> int * string;
      (** the reference interpreter's (exit code, output) *)
}

(** No caching: every compile and interpretation runs. *)
val direct : jobs:int -> backend

(** How a cell's run is simulated. *)
type plan =
  | Full  (** every issue group in detail *)
  | Sampled of Epic_sim.Sampling.plan
      (** interval sampling: cycles and categories are estimates *)

(** What a reducer sees: the finished simulation its cell rode. *)
type sim = {
  compiled : Driver.compiled;
  code : int;
  output : string;
  output_ok : bool;  (** exit code and output match the reference *)
  accounts : float array array;
      (** the cell's accountings, nine category totals each: one per
          experiment of the cell, in its order, read off the run, or the
          plain run's accounting alone when the cell carries none *)
  machine : Epic_sim.Machine.t;
  trace : Epic_obs.Trace.t option;
  profile : Epic_obs.Profile.t option;
  host : Metrics.host_stats;  (** wall time and GC traffic of the run *)
}

type 'r cell = {
  workload : Epic_workloads.Workload.t;  (** the source and its label *)
  config : Config.t;
  desc : Epic_mach.Machine_desc.t option;
      (** [None]: the simulating domain's current description *)
  train : int64 array;
  input : int64 array;
  experiments : Epic_sim.Accounting.experiment list;
  plan : plan;
  traced : bool;  (** attach an event trace *)
  period : int;  (** PC-sampling profile period; 0 = no profile *)
  reduce : sim -> 'r;
}

(** [cell w config reduce]: the workload's train and reference inputs,
    the domain's machine description, no experiments, [Full], no
    instruments. *)
val cell : Epic_workloads.Workload.t -> Config.t -> (sim -> 'r) -> 'r cell

(** Run the cells, one simulation per (compile key, input, plan,
    instruments); returns their results in cell order and the number of
    simulations run.  [progress] prints one stderr line per
    interpretation and simulation. *)
val run : ?progress:bool -> backend -> 'r cell list -> 'r array * int
