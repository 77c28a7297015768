(* The session layer: bounded content-addressed caches over the stateless
   Driver core, one lock + in-flight table for exactly-once builds under
   domain parallelism.  See the .mli for the contract. *)

module Config = Epic_core.Config
module Driver = Epic_core.Driver
module Metrics = Epic_core.Metrics
module Experiments = Epic_core.Experiments
module Pool = Epic_core.Pool

(* ---- content hashing --------------------------------------------------- *)

(* FNV-1a 64-bit, the same digest Machine_desc uses: tiny, dependency-free,
   and stable across processes (unlike Hashtbl.hash, which is documented to
   vary between OCaml versions). *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a64 (s : string) =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  Printf.sprintf "%016Lx" !h

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

(* Canonical serialization of a virtual-speedup experiment (list): the
   target's kind-tagged name plus the factor in %h (hex, exact), so a fused
   experiment set is content-addressable exactly like a config. *)
let experiment_key (e : Epic_sim.Accounting.experiment) =
  let open Epic_sim.Accounting in
  let tgt =
    match e.target with
    | Target_func f -> "f:" ^ f
    | Target_category c -> "c:" ^ string_of_int (index c)
    | Target_func_category (f, c) -> Printf.sprintf "fc:%s:%d" f (index c)
  in
  Printf.sprintf "%s@%h" tgt e.speedup

let experiments_key = function
  | [] -> ""
  | es -> ";ex=" ^ String.concat "," (List.map experiment_key es)

let resolve_desc = function
  | Some d -> d
  | None -> Epic_mach.Itanium.desc ()

let compile_key ~config ~desc ~train source =
  let d = resolve_desc desc in
  fnv1a64
    (Printf.sprintf "src=%s;cfg=%s;train=%s;desc=%s" (fnv1a64 source)
       (config_key config) (int64s_key train)
       (Epic_mach.Machine_desc.digest d))

(* ---- the session ------------------------------------------------------- *)

type outcome = {
  o_code : int;
  o_output : string;
  o_metrics : Metrics.run;
}

type t = {
  pool_jobs : int;
  mu : Mutex.t;
  cond : Condition.t;
  compile_cache : (string, Driver.compiled) Lru.t;
  run_cache : (string, outcome) Lru.t;
  ref_cache : (string, int * string) Lru.t;
  ckpt_cache : (string, Epic_sim.Machine.checkpoint option) Lru.t;
  fused_cache : (string, Driver.fused) Lru.t;
  inflight : (string, unit) Hashtbl.t;
      (* keys under construction, prefixed by kind ("c:", "r:", "f:",
         "k:", "x:") so the five caches share one table and one condition
         variable *)
  mutable s_compile_hits : int;
  mutable s_compile_misses : int;
  mutable s_run_hits : int;
  mutable s_run_misses : int;
  mutable s_run_uncached : int;
  mutable s_fused_hits : int;
  mutable s_fused_misses : int;
  mutable s_ref_hits : int;
  mutable s_ref_misses : int;
  mutable s_ckpt_hits : int;
  mutable s_ckpt_misses : int;
  mutable s_inflight_waits : int;
}

let create ?(jobs = 1) ?(compile_capacity = 64) ?(run_capacity = 256)
    ?(ckpt_capacity = 16) () =
  if jobs < 1 then invalid_arg "Session.create: jobs must be >= 1";
  {
    pool_jobs = jobs;
    mu = Mutex.create ();
    cond = Condition.create ();
    compile_cache = Lru.create ~capacity:compile_capacity;
    run_cache = Lru.create ~capacity:run_capacity;
    ref_cache = Lru.create ~capacity:run_capacity;
    ckpt_cache = Lru.create ~capacity:ckpt_capacity;
    fused_cache = Lru.create ~capacity:run_capacity;
    inflight = Hashtbl.create 16;
    s_compile_hits = 0;
    s_compile_misses = 0;
    s_run_hits = 0;
    s_run_misses = 0;
    s_run_uncached = 0;
    s_fused_hits = 0;
    s_fused_misses = 0;
    s_ref_hits = 0;
    s_ref_misses = 0;
    s_ckpt_hits = 0;
    s_ckpt_misses = 0;
    s_inflight_waits = 0;
  }

let jobs t = t.pool_jobs
let map t f arr = Pool.map ~jobs:t.pool_jobs f arr

(* Exactly-once construction: the first domain to miss marks the key
   in-flight and builds outside the lock; later domains for the same key
   wait on the condition variable and read the finished entry.  A waiter
   re-checks the cache on every wake-up — if the entry was evicted between
   insert and wake-up (tiny cache under pressure) it simply becomes the
   next builder, which is correct, just cold. *)
let cached_or_build t cache ~kind ~on_hit ~on_miss key build =
  let ikey = kind ^ key in
  Mutex.lock t.mu;
  let waited = ref false in
  let rec obtain () =
    match Lru.find cache key with
    | Some v ->
        on_hit ();
        Mutex.unlock t.mu;
        (v, true)
    | None ->
        if Hashtbl.mem t.inflight ikey then begin
          if not !waited then begin
            waited := true;
            t.s_inflight_waits <- t.s_inflight_waits + 1
          end;
          Condition.wait t.cond t.mu;
          obtain ()
        end
        else begin
          Hashtbl.add t.inflight ikey ();
          on_miss ();
          Mutex.unlock t.mu;
          let v =
            try build ()
            with e ->
              Mutex.lock t.mu;
              Hashtbl.remove t.inflight ikey;
              Condition.broadcast t.cond;
              Mutex.unlock t.mu;
              raise e
          in
          Mutex.lock t.mu;
          Hashtbl.remove t.inflight ikey;
          ignore (Lru.add cache key v);
          Condition.broadcast t.cond;
          Mutex.unlock t.mu;
          (v, false)
        end
  in
  obtain ()

let compile t ~config ~desc ~train source =
  let d = resolve_desc desc in
  let key = compile_key ~config ~desc:(Some d) ~train source in
  let compiled, hit =
    cached_or_build t t.compile_cache ~kind:"c:"
      ~on_hit:(fun () -> t.s_compile_hits <- t.s_compile_hits + 1)
      ~on_miss:(fun () -> t.s_compile_misses <- t.s_compile_misses + 1)
      key
      (fun () -> Driver.compile ~config ~desc:d ~train source)
  in
  (compiled, key, hit)

let compile_fn t : Driver.compile_fn =
 fun ~config ~desc ~train source ->
  let compiled, _, _ = compile t ~config ~desc ~train source in
  compiled

let reference t ~source ~input =
  let key = fnv1a64 ("src=" ^ fnv1a64 source ^ ";in=" ^ int64s_key input) in
  cached_or_build t t.ref_cache ~kind:"f:"
    ~on_hit:(fun () -> t.s_ref_hits <- t.s_ref_hits + 1)
    ~on_miss:(fun () -> t.s_ref_misses <- t.s_ref_misses + 1)
    key
    (fun () ->
      let p = Epic_frontend.Lower.compile_source source in
      let code, out, _ = Epic_ir.Interp.run p input in
      (code, out))

let simulate ?trace ?sampling ~sample_period ~workload
    ~reference:(ref_code, ref_out) compiled ~input () =
  let profile =
    if sample_period > 0 then
      Some (Epic_obs.Profile.create ~period:sample_period ())
    else None
  in
  let code, out, st = Driver.run ?trace ?profile ?sampling compiled input in
  let ok = code = ref_code && out = ref_out in
  let metrics =
    Metrics.of_machine ~workload ?profile compiled st ~output_matches:ok
  in
  { o_code = code; o_output = out; o_metrics = metrics }

let run t ?trace ?sampling ?(sample_period = Experiments.sample_period) ~workload ~reference ~key
    compiled input =
  match trace with
  | Some _ ->
      (* a cached outcome could not have filled this trace ring — the one
         genuinely uncacheable run shape (the compile cache still applies
         upstream) *)
      Mutex.lock t.mu;
      t.s_run_uncached <- t.s_run_uncached + 1;
      Mutex.unlock t.mu;
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
          (Printf.sprintf "c=%s;in=%s;sp=%d%s" key (int64s_key input)
             sample_period
             (match sampling with
             | None -> ""
             | Some p -> ";sm=" ^ Epic_sim.Sampling.key_fragment p))
      in
      let o, hit =
        cached_or_build t t.run_cache ~kind:"r:"
          ~on_hit:(fun () -> t.s_run_hits <- t.s_run_hits + 1)
          ~on_miss:(fun () -> t.s_run_misses <- t.s_run_misses + 1)
          rkey
          (simulate ?sampling ~sample_period ~workload ~reference compiled
             ~input)
      in
      (* the key is content-addressed; only the caller's label differs *)
      if hit && o.o_metrics.Metrics.workload <> workload then
        ({ o with o_metrics = { o.o_metrics with Metrics.workload } }, hit)
      else (o, hit)

(* ---- checkpoints ------------------------------------------------------- *)

(* Machine-state checkpoints are session artifacts like compiles: keyed by
   content (compile key + input hash + capture position), built exactly
   once under the in-flight table, bounded by their own LRU.  The cached
   value is an [option]: [None] records that the program retires fewer
   than [at] groups, which is just as deterministic as a captured snapshot
   and saves re-running the prefix to rediscover it. *)
let checkpoint_key ~key ~input ~at =
  fnv1a64 (Printf.sprintf "c=%s;in=%s;at=%d" key (int64s_key input) at)

let checkpoint t ~key ~at compiled input =
  let ckey = checkpoint_key ~key ~input ~at in
  let ck, hit =
    cached_or_build t t.ckpt_cache ~kind:"k:"
      ~on_hit:(fun () -> t.s_ckpt_hits <- t.s_ckpt_hits + 1)
      ~on_miss:(fun () -> t.s_ckpt_misses <- t.s_ckpt_misses + 1)
      ckey
      (fun () ->
        let _, _, st = Driver.run ~checkpoint_at:at compiled input in
        st.Epic_sim.Machine.ck_saved)
  in
  (ck, ckey, hit)

(* ---- fused multi-experiment runs --------------------------------------- *)

(* A fused run (one detailed simulation carrying a whole experiment set,
   DESIGN.md §14) is content-addressed like any outcome: compile key +
   input + the canonical experiment-set serialization + the prefix
   position.  Prefix reuse is peek-don't-build: a checkpoint already in
   the cache is resumed under the experiment set
   (Accounting.resume_set, within an ulp of
   straight-through); an absent one is captured as a side effect of the
   full run and seeded into the checkpoint cache for the next matrix —
   never built eagerly, so a cold fused matrix costs exactly one full
   simulation per workload. *)
let run_fused t ~key compiled ~experiments ~prefix_at input =
  let fkey =
    fnv1a64
      (Printf.sprintf "c=%s;in=%s%s;px=%s" key (int64s_key input)
         (experiments_key experiments)
         (match prefix_at with None -> "-" | Some at -> string_of_int at))
  in
  cached_or_build t t.fused_cache ~kind:"x:"
    ~on_hit:(fun () -> t.s_fused_hits <- t.s_fused_hits + 1)
    ~on_miss:(fun () -> t.s_fused_misses <- t.s_fused_misses + 1)
    fkey
    (fun () ->
      let full ?checkpoint_at () =
        let code, output, st =
          Driver.run ?checkpoint_at ~experiments compiled input
        in
        (Driver.fused_of_machine code output st ~resumed:false, st)
      in
      match prefix_at with
      | None -> fst (full ())
      | Some at ->
          let ckey = checkpoint_key ~key ~input ~at in
          let peek =
            Mutex.lock t.mu;
            let v = Lru.find t.ckpt_cache ckey in
            Mutex.unlock t.mu;
            v
          in
          (match peek with
          | Some (Some ck) ->
              (* warm prefix: replay only the suffix, experiments applied
                 to the checkpointed past *)
              let code, output, st =
                Driver.resume ~experiments compiled ck
              in
              Driver.fused_of_machine code output st ~resumed:true
          | Some None ->
              (* known too short for the prefix: plain full run *)
              fst (full ())
          | None ->
              (* cold: capture the prefix as a side effect (checkpoint
                 capture never perturbs accounting) and seed the cache *)
              let f, st = full ~checkpoint_at:at () in
              Mutex.lock t.mu;
              if not (Hashtbl.mem t.inflight ("k:" ^ ckey)) then
                ignore (Lru.add t.ckpt_cache ckey st.Epic_sim.Machine.ck_saved);
              Mutex.unlock t.mu;
              f))

let fused_fn t : Driver.fused_fn =
 fun ~config ~desc ~train ~input ~experiments ~prefix_at source ->
  let compiled, key, _ = compile t ~config ~desc ~train source in
  fst (run_fused t ~key compiled ~experiments ~prefix_at input)

type served = {
  s_outcome : outcome;
  s_key : string;
  s_compile_hit : bool;
  s_run_hit : bool;
}

let compile_and_run t ?trace ?sampling ?sample_period ~workload ~config ~desc
    ~train ~input source =
  let compiled, key, compile_hit = compile t ~config ~desc ~train source in
  let reference, _ = reference t ~source ~input in
  let outcome, run_hit =
    run t ?trace ?sampling ?sample_period ~workload ~reference ~key compiled
      input
  in
  { s_outcome = outcome; s_key = key; s_compile_hit = compile_hit; s_run_hit = run_hit }

(* ---- experiment matrices ---------------------------------------------- *)

let suite t ?workloads ?progress () =
  Experiments.run_suite ?workloads ?progress ~jobs:t.pool_jobs
    ~compile:(compile_fn t) ()

let sweep t ?variants ?ablations ?sampling ?big_inputs ?progress ~workloads ()
    =
  Epic_sweep.Sweep.run ?variants ?ablations ~compile:(compile_fn t) ?sampling
    ?big_inputs ?progress ~jobs:t.pool_jobs ~workloads ()

let causal t ?targets ?factors ?top_funcs ?split_funcs ?serial ?big_inputs
    ?progress ~workloads () =
  Epic_causal.Causal.run ?targets ?factors ?top_funcs ?split_funcs
    ~compile:(compile_fn t) ~fused:(fused_fn t) ?serial ?big_inputs ?progress
    ~jobs:t.pool_jobs ~workloads ()

(* ---- accounting -------------------------------------------------------- *)

type stats = {
  st_compile_hits : int;
  st_compile_misses : int;
  st_compile_evictions : int;
  st_compile_entries : int;
  st_run_hits : int;
  st_run_misses : int;
  st_run_evictions : int;
  st_run_entries : int;
  st_run_uncached : int;
  st_fused_hits : int;
  st_fused_misses : int;
  st_fused_entries : int;
  st_ref_hits : int;
  st_ref_misses : int;
  st_ckpt_hits : int;
  st_ckpt_misses : int;
  st_ckpt_entries : int;
  st_inflight_waits : int;
}

let stats t =
  Mutex.lock t.mu;
  let s =
    {
      st_compile_hits = t.s_compile_hits;
      st_compile_misses = t.s_compile_misses;
      st_compile_evictions = Lru.evictions t.compile_cache;
      st_compile_entries = Lru.length t.compile_cache;
      st_run_hits = t.s_run_hits;
      st_run_misses = t.s_run_misses;
      st_run_evictions = Lru.evictions t.run_cache;
      st_run_entries = Lru.length t.run_cache;
      st_run_uncached = t.s_run_uncached;
      st_fused_hits = t.s_fused_hits;
      st_fused_misses = t.s_fused_misses;
      st_fused_entries = Lru.length t.fused_cache;
      st_ref_hits = t.s_ref_hits;
      st_ref_misses = t.s_ref_misses;
      st_ckpt_hits = t.s_ckpt_hits;
      st_ckpt_misses = t.s_ckpt_misses;
      st_ckpt_entries = Lru.length t.ckpt_cache;
      st_inflight_waits = t.s_inflight_waits;
    }
  in
  Mutex.unlock t.mu;
  s

let stats_to_json t =
  let s = stats t in
  Epic_obs.Json.Obj
    [
      ("jobs", Epic_obs.Json.Int t.pool_jobs);
      ( "compile",
        Epic_obs.Json.Obj
          [
            ("hits", Epic_obs.Json.Int s.st_compile_hits);
            ("misses", Epic_obs.Json.Int s.st_compile_misses);
            ("evictions", Epic_obs.Json.Int s.st_compile_evictions);
            ("entries", Epic_obs.Json.Int s.st_compile_entries);
            ("capacity", Epic_obs.Json.Int (Lru.capacity t.compile_cache));
          ] );
      ( "run",
        Epic_obs.Json.Obj
          [
            ("hits", Epic_obs.Json.Int s.st_run_hits);
            ("misses", Epic_obs.Json.Int s.st_run_misses);
            ("evictions", Epic_obs.Json.Int s.st_run_evictions);
            ("entries", Epic_obs.Json.Int s.st_run_entries);
            ("uncached", Epic_obs.Json.Int s.st_run_uncached);
            ("capacity", Epic_obs.Json.Int (Lru.capacity t.run_cache));
          ] );
      ( "fused",
        Epic_obs.Json.Obj
          [
            ("hits", Epic_obs.Json.Int s.st_fused_hits);
            ("misses", Epic_obs.Json.Int s.st_fused_misses);
            ("entries", Epic_obs.Json.Int s.st_fused_entries);
            ("capacity", Epic_obs.Json.Int (Lru.capacity t.fused_cache));
          ] );
      ( "reference",
        Epic_obs.Json.Obj
          [
            ("hits", Epic_obs.Json.Int s.st_ref_hits);
            ("misses", Epic_obs.Json.Int s.st_ref_misses);
          ] );
      ( "checkpoint",
        Epic_obs.Json.Obj
          [
            ("hits", Epic_obs.Json.Int s.st_ckpt_hits);
            ("misses", Epic_obs.Json.Int s.st_ckpt_misses);
            ("entries", Epic_obs.Json.Int s.st_ckpt_entries);
            ("capacity", Epic_obs.Json.Int (Lru.capacity t.ckpt_cache));
          ] );
      ("inflight_waits", Epic_obs.Json.Int s.st_inflight_waits);
    ]
