(** The epicd wire protocol: newline-delimited {!Epic_obs.Json} documents
    over a Unix-domain socket, one request and one response per line.

    A request is an object with an optional [id] (echoed verbatim in the
    response), an [op] string, and per-op fields:

    - [ping] — liveness probe;
    - [stats] — the session's cache counters ({!Session.stats_to_json});
    - [shutdown] — reply, then the daemon exits;
    - [compile] — [source] (mini-C text, required), [level] (gcc | o-ns |
      ilp-ns | ilp-cs, default ilp-cs), [sentinel] and [pointer_analysis]
      (bools), [train] (int list, default []);
    - [run] — the [compile] fields plus [input] (int list, default []),
      [train] defaulting to [input], [workload] (label, default
      "program"), [sample_period] (default the suite's
      {!Epic_core.Experiments.sample_period}), [sampling] (an
      interval-sampling spec for {!Epic_sim.Sampling.parse_spec} —
      ["I:D[:W]"], [""] for the default plan; absent = full detailed
      simulation) and [normalize_time] (bool: pass the result through
      {!Epic_core.Export.normalize_time});
    - [suite] — [workloads] (name list, default the whole suite),
      [normalize_time];
    - [sweep] — [workloads] (required), optional [variants] / [ablations]
      (name lists), [big_inputs] (bool, default false: scaled evaluation
      inputs), [normalize_time];
    - [causal] — [workloads] (required), optional [targets] (names for
      {!Epic_causal.Causal.parse_target}), [factors], [top_funcs],
      [split_funcs], [big_inputs], [normalize_time]; the grid is read
      off each workload's baseline run, one simulation per workload.

    A response echoes [{"id", "ok", "op"}] and carries [result] on
    success ([error] on failure); [compile] and [run] responses add
    [cached] (did the decisive cache hit — the compile cache for
    [compile], the run cache for [run]), plus the content-addressed [key]
    and, for [run], [compile_cached].  A [run] result is exactly the
    {!Epic_core.Export.run_to_json} document the batch [epicc --json]
    writes, so a served response diffs byte-for-byte against the CLI
    after [normalize_time]. *)

type request

(** Parse one request line.  Never raises: a malformed line parses as a
    request whose execution reports the error (with [id] echoed when one
    could be recovered). *)
val parse : string -> request

(** Matrix ops ([suite], [sweep], [causal]) — they parallelize internally
    over the session pool, so {!execute_batch} runs each alone rather than
    fanning it out with its neighbours. *)
val is_heavy : request -> bool

val is_shutdown : request -> bool

(** The error response for input that never became a request (no [id],
    [op] ["?"]), e.g. a line over the daemon's length cap. *)
val error_response : string -> string

(** Execute against the session; returns the compact one-line response
    (no trailing newline).  Catches exceptions into error responses. *)
val execute : Session.t -> request -> string

(** Execute a batch of requests (the lines a daemon read in one wake-up)
    with the effects of wire order: each heavy request runs alone at its
    position, each maximal run of light requests between them fans over
    the session's pool.  Response [i] answers request [i]. *)
val execute_batch : Session.t -> request array -> string array
