(** A compile/simulate session: the stateful, reusable layer over the
    stateless {!Epic_core.Driver} core.

    A session owns the parallelism width of its {!Epic_core.Pool} and one
    bounded content-addressed artifact store with three kinds, each its
    own {!Lru} with its own counters:

    - [compile], keyed by (source hash, full {!Epic_core.Config}
      serialization, train-input hash,
      {!Epic_mach.Machine_desc.digest}) — a [Driver.compiled] is
      deterministic in exactly those four ingredients, and compiling from
      source resets the domain-local instruction-id counter, so a cached
      program is safe to re-simulate on any domain;
    - [run], keyed by (compile key, run-input hash, sample period,
      sampling plan), holding finished simulation outcomes;
    - [reference], keyed by (source hash, run-input hash), holding the
      interpreter's (exit code, output).

    [compile_capacity] bounds [compile]; [run_capacity] bounds [run] and
    [reference].  Experiments need no store of their own: they are read
    off a run's accounting ({!Epic_sim.Machine.read}).

    The store is protected by one lock and an in-flight table with a
    condition variable, so concurrent requests for the same key — e.g. a
    burst of identical epicd requests fanned over the pool — build
    exactly once: the first requester builds, the rest block and read the
    cached value.  All entry points are domain-safe.

    Everything the binaries do routes through here: [epicc] and [epicd]
    via {!compile_and_run}, and every experiment matrix — the suite, the
    Section 4 experiments, the sensitivity sweep, the causal matrix, the
    sampling accuracy harness — via {!backend}, the session's stores as
    an {!Epic_core.Matrix.backend}. *)

type t

(** [create ()] makes a fresh session.  [jobs] (default 1) is the domain
    pool width used by {!map} and {!backend};
    [compile_capacity] (default 64) and [run_capacity] (default 256)
    bound the store's kinds as listed above.
    @raise Invalid_argument if a capacity or [jobs] is < 1. *)
val create :
  ?jobs:int -> ?compile_capacity:int -> ?run_capacity:int -> unit -> t

val jobs : t -> int

(** Shard [f] over the session's domain pool ({!Epic_core.Pool.map} at the
    session's width). *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** {2 Keys} *)

(** The content-addressed compile key (16 hex digits, FNV-1a over the
    canonical serialization of all four ingredients).  [desc = None] is
    resolved to the calling domain's current machine description first, so
    an explicit [Some itanium2] and the default share cache entries. *)
val compile_key :
  config:Epic_core.Config.t ->
  desc:Epic_mach.Machine_desc.t option ->
  train:int64 array ->
  string ->
  string

(** {2 Entry points} *)

(** Compile through the cache.  Returns the program, its key, and whether
    this was a cache hit. *)
val compile :
  t ->
  config:Epic_core.Config.t ->
  desc:Epic_mach.Machine_desc.t option ->
  train:int64 array ->
  string ->
  Epic_core.Driver.compiled * string * bool

(** A finished simulation: exit code, program output, metrics, and the
    metrics' result document already serialized.  Cached outcomes carry
    no [host] section (host timings describe the run that populated the
    cache, not the request), so a cache hit is byte-identical to the cold
    outcome even before {!Epic_core.Export.normalize_time}. *)
type outcome = {
  o_code : int;
  o_output : string;
  o_metrics : Epic_core.Metrics.run;
  o_result : string;
      (** [Json.to_string (Export.run_to_json o_metrics)], encoded once
          when the outcome is built, so a run-cache hit serves stored
          bytes *)
  o_label_end : int;
      (** where in [o_result] the workload label's value ends (it is the
          document's first field): a hit under another label splices the
          bytes from here behind the new label *)
}

(** Build an outcome, encoding its result document. *)
val outcome : code:int -> output:string -> Epic_core.Metrics.run -> outcome

(** Reference interpretation of [source] on [input] (lower once,
    interpret), cached by (source, input).  Returns (exit code, output)
    and whether it hit. *)
val reference : t -> source:string -> input:int64 array -> (int * string) * bool

(** Simulate a cached-or-fresh compile through the [run] kind.
    [sample_period] (default {!Epic_core.Experiments.sample_period})
    controls the PC profiler; [0] disables sampling.  [reference] is the
    interpreter's (code, output) for the mismatch check.  On a hit only
    the workload label is patched ([workload] names the request, the key
    is content-addressed, and the result document is re-encoded).  A
    request carrying [trace] bypasses the [run] kind entirely (a hit
    could not replay the trace) and counts as its [uncached] — the only
    uncacheable run shape.
    [sampling] instead joins the run-cache key (via
    {!Epic_sim.Sampling.key_fragment}) because the outcome is
    deterministic in the plan — plain unsampled requests keep the
    historical key form.  Returns the outcome and whether it hit. *)
val run :
  t ->
  ?trace:Epic_obs.Trace.t ->
  ?sampling:Epic_sim.Sampling.plan ->
  ?sample_period:int ->
  workload:string ->
  reference:int * string ->
  key:string ->
  Epic_core.Driver.compiled ->
  int64 array ->
  outcome * bool

(** What one [epicc]/[epicd] request resolves to. *)
type served = {
  s_outcome : outcome;
  s_key : string;  (** the compile key *)
  s_compile_hit : bool;
  s_run_hit : bool;
}

(** The whole request path: compile (cached), reference (cached), run
    (cached).  The source is hashed once; the compile and reference keys
    both derive from that hash.  Labels, defaults and profile period match
    what [epicc] historically produced, so served documents diff cleanly
    against batch ones. *)
val compile_and_run :
  t ->
  ?trace:Epic_obs.Trace.t ->
  ?sampling:Epic_sim.Sampling.plan ->
  ?sample_period:int ->
  workload:string ->
  config:Epic_core.Config.t ->
  desc:Epic_mach.Machine_desc.t option ->
  train:int64 array ->
  input:int64 array ->
  string ->
  served

(** {2 Experiment matrices through the session}

    The session as an {!Epic_core.Matrix.backend}: its width, and its
    compile and reference stores, so one session shares compiles and
    interpretations across
    a suite, a sweep and a causal matrix — the sweep baseline and the
    suite's ILP-CS column, for instance, share cache entries, and each
    (source, input) pair is interpreted once. *)
val backend : t -> Epic_core.Matrix.backend

(** {2 Accounting} *)

type stats = {
  st_compile_hits : int;
  st_compile_misses : int;
  st_compile_evictions : int;
  st_compile_entries : int;
  st_run_hits : int;
  st_run_misses : int;
  st_run_evictions : int;
  st_run_uncached : int;  (** trace runs that bypassed the cache *)
  st_inflight_waits : int;
      (** requests that blocked on another domain building the same key *)
}

(** A snapshot of the counters the binaries and benchmarks read; the
    full per-kind detail is in {!stats_to_json}. *)
val stats : t -> stats

(** The [session] JSON block ([epicc --json], epicd [stats]): [jobs],
    [inflight_waits], and one block per kind ([compile], [run],
    [reference]) with the same [hits], [misses],
    [evictions], [entries] and [capacity] keys; [run] also carries
    [uncached].  {!Epic_core.Export.normalize_time} drops [session]
    sections whole — traffic history, not results. *)
val stats_to_json : t -> Epic_obs.Json.t
