(* The session layer: bounded content-addressed caches over the stateless
   Driver core, one lock + in-flight table for exactly-once builds under
   domain parallelism.  See the .mli for the contract. *)

module Config = Epic_core.Config
module Driver = Epic_core.Driver
module Metrics = Epic_core.Metrics
module Experiments = Epic_core.Experiments
module Pool = Epic_core.Pool

(* ---- content hashing --------------------------------------------------- *)

(* FNV-1a 64-bit, the same hash Machine_desc digests with: tiny,
   dependency-free, and stable across processes (unlike Hashtbl.hash, which
   is documented to vary between OCaml versions). *)
let fnv1a64 = Epic_mach.Machine_desc.fnv1a64

let int64s_key (a : int64 array) =
  let buf = Buffer.create (8 * Array.length a) in
  Array.iter
    (fun v ->
      Buffer.add_string buf (Int64.to_string v);
      Buffer.add_char buf ';')
    a;
  fnv1a64 (Buffer.contents buf)

(* Canonical serialization of a full configuration.  Every field of
   Config.t and of the four ILP params records is destructured by name, so
   adding a field without extending the key is a compile error (warning 9
   is fatal in the dev profile) — the same discipline as
   Machine_desc.digest.  Floats are rendered with %h (hex, exact). *)
let config_key (c : Config.t) =
  let {
    Config.level;
    spec_model;
    pointer_analysis;
    inline_budget;
    superblock;
    hyperblock;
    peel;
    unroll;
    enable_peel;
    enable_unroll;
    enable_hyperblock;
    enable_superblock;
    enable_height_reduction;
    enable_data_speculation;
  } =
    c
  in
  let buf = Buffer.create 160 in
  let str s =
    Buffer.add_string buf s;
    Buffer.add_char buf ';'
  in
  let int i = str (string_of_int i) in
  let fl f = str (Printf.sprintf "%h" f) in
  let bool b = int (if b then 1 else 0) in
  str (Config.level_name level);
  (match spec_model with
  | Epic_ilp.Speculate.General -> str "general"
  | Epic_ilp.Speculate.Sentinel -> str "sentinel");
  bool pointer_analysis;
  fl inline_budget;
  (let { Epic_ilp.Superblock.min_edge_prob; min_block_weight; growth_budget; max_trace_len } =
     superblock
   in
   fl min_edge_prob;
   fl min_block_weight;
   fl growth_budget;
   int max_trace_len);
  (let { Epic_ilp.Hyperblock.max_path_instrs; min_path_ratio; max_height_diff; max_block_predicates } =
     hyperblock
   in
   int max_path_instrs;
   fl min_path_ratio;
   int max_height_diff;
   int max_block_predicates);
  (let { Epic_ilp.Peel.max_avg_trips; min_avg_trips; max_body_instrs; growth_budget; mark_remainder_cold } =
     peel
   in
   fl max_avg_trips;
   fl min_avg_trips;
   int max_body_instrs;
   fl growth_budget;
   bool mark_remainder_cold);
  (let { Epic_ilp.Unroll.factor; min_avg_trips; max_body_instrs } = unroll in
   int factor;
   fl min_avg_trips;
   int max_body_instrs);
  bool enable_peel;
  bool enable_unroll;
  bool enable_hyperblock;
  bool enable_superblock;
  bool enable_height_reduction;
  bool enable_data_speculation;
  Buffer.contents buf

let resolve_desc = function
  | Some d -> d
  | None -> Epic_mach.Itanium.desc ()

(* Every key naming a source is built from the source's hash, so a request
   hashes its source once and derives the compile and reference keys from
   that one hash. *)
let compile_key_hashed ~src ~config ~desc ~train =
  fnv1a64
    (Printf.sprintf "src=%s;cfg=%s;train=%s;desc=%s" src (config_key config)
       (int64s_key train)
       (Epic_mach.Machine_desc.digest desc))

let compile_key ~config ~desc ~train source =
  compile_key_hashed ~src:(fnv1a64 source) ~config ~desc:(resolve_desc desc)
    ~train

let reference_key ~src ~input = fnv1a64 ("src=" ^ src ^ ";in=" ^ input)

(* ---- the artifact store ---------------------------------------------- *)

type outcome = {
  o_code : int;
  o_output : string;
  o_metrics : Metrics.run;
  o_result : string;
  o_label_end : int;
}

(* [Export.run_to_json]'s first field is the workload label, so a result
   document is this prefix followed by bytes the label does not touch. *)
let label_prefix workload =
  "{\"workload\":" ^ Epic_obs.Json.to_string (Epic_obs.Json.Str workload)

(* The result document is encoded here, once, when the outcome is built:
   a run-cache hit then serves stored bytes.  Eager on purpose — identical
   hits fan over the domain pool, and a shared [Lazy.t] forced from two
   domains at once raises. *)
let outcome ~code ~output metrics =
  {
    o_code = code;
    o_output = output;
    o_metrics = metrics;
    o_result = Epic_obs.Json.to_string (Epic_core.Export.run_to_json metrics);
    o_label_end = String.length (label_prefix metrics.Metrics.workload);
  }

(* The same outcome under another label: the stored bytes after the old
   label, spliced behind the new one instead of re-encoding the document. *)
let relabel o workload =
  let prefix = label_prefix workload in
  let p = String.length prefix in
  let rest = String.length o.o_result - o.o_label_end in
  let b = Bytes.create (p + rest) in
  Bytes.blit_string prefix 0 b 0 p;
  Bytes.blit_string o.o_result o.o_label_end b p rest;
  {
    o with
    o_metrics = { o.o_metrics with Metrics.workload };
    o_result = Bytes.unsafe_to_string b;
    o_label_end = p;
  }

(* One kind of cached artifact: its own bounded LRU and its own counters.
   [uncached] counts requests that bypassed the kind (today only trace
   runs of the run kind). *)
type 'v kind = {
  name : string;
  lru : (string, 'v) Lru.t;
  mutable hits : int;
  mutable misses : int;
  mutable uncached : int;
}

let kind name capacity =
  { name; lru = Lru.create ~capacity; hits = 0; misses = 0; uncached = 0 }

type t = {
  pool_jobs : int;
  mu : Mutex.t;
  cond : Condition.t;
  compiles : Driver.compiled kind;
  runs : outcome kind;
  references : (int * string) kind;
  inflight : (string * string, unit) Hashtbl.t;
      (* (kind name, key) pairs under construction: the three kinds share
         one table and one condition variable *)
  mutable inflight_waits : int;
}

let create ?(jobs = 1) ?(compile_capacity = 64) ?(run_capacity = 256) () =
  if jobs < 1 then invalid_arg "Session.create: jobs must be >= 1";
  {
    pool_jobs = jobs;
    mu = Mutex.create ();
    cond = Condition.create ();
    compiles = kind "compile" compile_capacity;
    runs = kind "run" run_capacity;
    references = kind "reference" run_capacity;
    inflight = Hashtbl.create 16;
    inflight_waits = 0;
  }

let jobs t = t.pool_jobs
let map t f arr = Pool.map ~jobs:t.pool_jobs f arr

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Exactly-once construction: the first domain to miss marks the key
   in-flight and builds outside the lock; later domains for the same key
   wait on the condition variable and read the finished entry.  A waiter
   re-checks the cache on every wake-up — if the entry was evicted between
   insert and wake-up (tiny cache under pressure) it simply becomes the
   next builder, which is correct, just cold. *)
let cached_or_build t k key build =
  let ikey = (k.name, key) in
  (* release the claim, publish the value if there is one, wake waiters *)
  let finish v =
    locked t (fun () ->
        Hashtbl.remove t.inflight ikey;
        Option.iter (fun v -> ignore (Lru.add k.lru key v)) v;
        Condition.broadcast t.cond)
  in
  Mutex.lock t.mu;
  let waited = ref false in
  let rec obtain () =
    match Lru.find k.lru key with
    | Some v ->
        k.hits <- k.hits + 1;
        Mutex.unlock t.mu;
        (v, true)
    | None when Hashtbl.mem t.inflight ikey ->
        if not !waited then begin
          waited := true;
          t.inflight_waits <- t.inflight_waits + 1
        end;
        Condition.wait t.cond t.mu;
        obtain ()
    | None ->
        Hashtbl.add t.inflight ikey ();
        k.misses <- k.misses + 1;
        Mutex.unlock t.mu;
        match build () with
        | v ->
            finish (Some v);
            (v, false)
        | exception e ->
            finish None;
            raise e
  in
  obtain ()

(* ---- entry points ------------------------------------------------------ *)

let compile_hashed t ~src ~config ~desc ~train source =
  let d = resolve_desc desc in
  let key = compile_key_hashed ~src ~config ~desc:d ~train in
  let compiled, hit =
    cached_or_build t t.compiles key (fun () ->
        Driver.compile ~config ~desc:d ~train source)
  in
  (compiled, key, hit)

let compile t ~config ~desc ~train source =
  compile_hashed t ~src:(fnv1a64 source) ~config ~desc ~train source

(* [input_key] is [int64s_key input], shared with the run key. *)
let reference_hashed t ~src ~input_key source input =
  cached_or_build t t.references (reference_key ~src ~input:input_key)
    (fun () ->
      let p = Epic_frontend.Lower.compile_source source in
      let code, out, _ = Epic_ir.Interp.run p input in
      (code, out))

let reference t ~source ~input =
  reference_hashed t ~src:(fnv1a64 source) ~input_key:(int64s_key input)
    source input

let simulate ?trace ?sampling ~sample_period ~workload
    ~reference:(ref_code, ref_out) compiled ~input () =
  let profile =
    if sample_period > 0 then
      Some (Epic_obs.Profile.create ~period:sample_period ())
    else None
  in
  let code, output, st = Driver.run ?trace ?profile ?sampling compiled input in
  let ok = code = ref_code && output = ref_out in
  outcome ~code ~output
    (Metrics.of_machine ~workload ?profile compiled st ~output_matches:ok)

let run_keyed t ?trace ?sampling ~sample_period ~workload ~reference ~key
    ~input_key compiled input =
  match trace with
  | Some _ ->
      (* a cached outcome could not have filled this trace ring — the one
         genuinely uncacheable run shape (the compile cache still applies
         upstream) *)
      locked t (fun () -> t.runs.uncached <- t.runs.uncached + 1);
      ( simulate ?trace ?sampling ~sample_period ~workload ~reference
          compiled ~input (),
        false )
  | None ->
      (* the sampling plan is part of the outcome's identity
         (extrapolated cycles differ per plan) and folds into the key;
         plain unsampled keys keep the historical form so warm caches
         stay valid *)
      let rkey =
        fnv1a64
          (Printf.sprintf "c=%s;in=%s;sp=%d%s" key input_key sample_period
             (match sampling with
             | None -> ""
             | Some p -> ";sm=" ^ Epic_sim.Sampling.key_fragment p))
      in
      let o, hit =
        cached_or_build t t.runs rkey
          (simulate ?sampling ~sample_period ~workload ~reference compiled
             ~input)
      in
      (* the key is content-addressed; only the caller's label differs *)
      if hit && o.o_metrics.Metrics.workload <> workload then
        (relabel o workload, hit)
      else (o, hit)

let run t ?trace ?sampling ?(sample_period = Experiments.sample_period)
    ~workload ~reference ~key compiled input =
  run_keyed t ?trace ?sampling ~sample_period ~workload ~reference ~key
    ~input_key:(int64s_key input) compiled input

type served = {
  s_outcome : outcome;
  s_key : string;
  s_compile_hit : bool;
  s_run_hit : bool;
}

let compile_and_run t ?trace ?sampling
    ?(sample_period = Experiments.sample_period) ~workload ~config ~desc
    ~train ~input source =
  let src = fnv1a64 source in
  let input_key = int64s_key input in
  let compiled, key, compile_hit =
    compile_hashed t ~src ~config ~desc ~train source
  in
  let reference, _ = reference_hashed t ~src ~input_key source input in
  let outcome, run_hit =
    run_keyed t ?trace ?sampling ~sample_period ~workload ~reference ~key
      ~input_key compiled input
  in
  { s_outcome = outcome; s_key = key; s_compile_hit = compile_hit; s_run_hit = run_hit }

(* ---- experiment matrices ---------------------------------------------- *)

let backend t : Epic_core.Matrix.backend =
  {
    jobs = t.pool_jobs;
    compile =
      (fun ~config ~desc ~train source ->
        let compiled, _, _ = compile t ~config ~desc ~train source in
        compiled);
    reference = (fun ~source ~input -> fst (reference t ~source ~input));
  }

(* ---- accounting -------------------------------------------------------- *)

type stats = {
  st_compile_hits : int;
  st_compile_misses : int;
  st_compile_evictions : int;
  st_compile_entries : int;
  st_run_hits : int;
  st_run_misses : int;
  st_run_evictions : int;
  st_run_uncached : int;
  st_inflight_waits : int;
}

let stats t =
  locked t (fun () ->
      {
        st_compile_hits = t.compiles.hits;
        st_compile_misses = t.compiles.misses;
        st_compile_evictions = Lru.evictions t.compiles.lru;
        st_compile_entries = Lru.length t.compiles.lru;
        st_run_hits = t.runs.hits;
        st_run_misses = t.runs.misses;
        st_run_evictions = Lru.evictions t.runs.lru;
        st_run_uncached = t.runs.uncached;
        st_inflight_waits = t.inflight_waits;
      })

let stats_to_json t =
  let open Epic_obs.Json in
  let block ?(extra = []) k =
    ( k.name,
      Obj
        ([
           ("hits", Int k.hits);
           ("misses", Int k.misses);
           ("evictions", Int (Lru.evictions k.lru));
           ("entries", Int (Lru.length k.lru));
           ("capacity", Int (Lru.capacity k.lru));
         ]
        @ extra) )
  in
  locked t (fun () ->
      Obj
        [
          ("jobs", Int t.pool_jobs);
          block t.compiles;
          block ~extra:[ ("uncached", Int t.runs.uncached) ] t.runs;
          block t.references;
          ("inflight_waits", Int t.inflight_waits);
        ])
