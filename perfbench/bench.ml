(* The repo benchmark: four workloads -- compile, simulate, experiment and
   serve -- each run in one process at pool width 1, every operation's
   output checked, every host time calibrated against [Calib].  run.py
   builds this executable and calls it as

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--trace-file F]

   The seed fixes the operation order, the fresh inputs and the request mix;
   [--seconds] fixes the number of operations (a workload's deck is sized to
   take [deck_seconds] at the reference host speed), so two commits always
   run the same work.  The last line of standard output is the result object; see
   README.md for every metric. *)

open Epic_core
open Epic_workloads
module Json = Epic_obs.Json
module Passes = Epic_obs.Passes
module Machine = Epic_sim.Machine
module Accounting = Epic_sim.Accounting
module Sampling = Epic_sim.Sampling
module Cache = Epic_sim.Cache
module Session = Epic_serve.Session
module Protocol = Epic_serve.Protocol

let now = Unix.gettimeofday

(* ---- statistics ------------------------------------------------------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile, as Python's statistics.quantiles(n=4). *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld < 2 then (median l, median l)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (q 1, q 3)

(* The highest percentile with at least ten operations beyond it, capped at
   p99 and never below the median: (value, percentile, ops beyond). *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then (0., 0., 0)
  else
    let i = min (n - 11) (int_of_float (ceil (0.99 *. float n)) - 1) in
    let i = max i (n / 2) in
    (a.(i), 100. *. float (i + 1) /. float n, n - 1 - i)

let geomean = function
  | [] -> 0.
  | l ->
      exp (List.fold_left (fun a x -> a +. log x) 0. l /. float (List.length l))

let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* ---- seeded inputs ---------------------------------------------------- *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [n] operations: whole seeded permutations of [deck], the last one cut. *)
let plan rng deck n =
  let rec go acc left =
    if left <= 0 then Array.concat (List.rev acc)
    else
      let p = shuffle rng deck in
      let k = min left (Array.length p) in
      go (Array.sub p 0 k :: acc) (left - k)
  in
  go [] n

(* The suite programs read their random-number seed from input(0); a fresh
   input keeps the shape of a real one and changes only that seed. *)
let fresh rng (v : int64 array) =
  let a = Array.copy v in
  a.(0) <- Int64.of_int (1 + Random.State.int rng 1_000_000);
  a

let config_for level (w : Workload.t) =
  { (Config.make level) with Config.pointer_analysis = w.Workload.pointer_analysis }

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec find () =
      match input_line ic with
      | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
      | _ -> find ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) find
  with _ -> float ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6

(* ---- calibrated timing ------------------------------------------------ *)

let kernels : float list ref = ref []  (* newest first *)

(* Collect first, so the kernel measures the host and not the garbage the
   previous operation left behind. *)
let kernel () =
  Gc.full_major ();
  let k = Calib.run () in
  kernels := k :: !kernels

(* The factor that turns raw ms into calibrated ms for work that ended just
   before the latest kernel: from the mean of the kernels before and after
   it.  (A median over more kernels lagged the drift and did worse.) *)
let current_factor () =
  match !kernels with
  | k1 :: k0 :: _ -> Calib.factor ((k0 +. k1) /. 2.)
  | [ k ] -> Calib.factor k
  | [] -> 1.

type 'a timed = { res : ('a, string) result; raw : float; fac : float }

(* Run [f], then a kernel: its result (an exception becomes [Error]), raw
   wall ms, and its calibration factor. *)
let measure f =
  let t0 = now () in
  let res = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  let raw = (now () -. t0) *. 1000. in
  kernel ();
  { res; raw; fac = current_factor () }

(* A set-up step: runs its thunk, then a kernel, and returns the value with
   its calibrated ms. *)
type stepper = { step : 'a. (unit -> 'a) -> 'a * float }

(* Set-up: [k] repetitions of [f stepper].  Returns every repetition's
   value and the median calibrated seconds. *)
let setups k f =
  let runs =
    List.init k (fun _ ->
        Gc.compact ();
        kernel ();
        let total = ref 0. in
        let step g =
          let t = measure g in
          total := !total +. (t.raw *. t.fac);
          match t.res with
          | Ok v -> (v, t.raw *. t.fac)
          | Error e -> failwith ("set-up step failed: " ^ e)
        in
        let v = f { step } in
        (v, !total /. 1000.))
  in
  (List.map fst runs, median (List.map snd runs))

(* Set-ups per run; [setup_s] is their median. *)
let n_setups = 5

(* ---- per-pass accumulation -------------------------------------------- *)

(* Sums and samples gathered during one pass over the planned operations;
   each workload turns them into its metrics. *)
type acc = {
  sums : (string, float) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
  mutable cal : float list;  (** calibrated op ms *)
  mutable raw : float list;
  mutable failures : string list;
  mutable attempted : int;
  mutable ops_json : Json.t list;
}

let new_acc () =
  {
    sums = Hashtbl.create 64;
    samples = Hashtbl.create 16;
    cal = [];
    raw = [];
    failures = [];
    attempted = 0;
    ops_json = [];
  }

let get a name = Option.value ~default:0. (Hashtbl.find_opt a.sums name)
let add a name v = Hashtbl.replace a.sums name (get a name +. v)
let addi a name v = add a name (float v)

let sample a name v =
  Hashtbl.replace a.samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt a.samples name))

let samples a name = Option.value ~default:[] (Hashtbl.find_opt a.samples name)
let fail a why = a.failures <- why :: a.failures

let record_op a ~id ~kind ~raw ~fac ~ok =
  a.attempted <- a.attempted + 1;
  a.cal <- (raw *. fac) :: a.cal;
  a.raw <- raw :: a.raw;
  a.ops_json <-
    Json.Obj
      [
        ("op", Json.Int id);
        ("kind", Json.Str kind);
        ("raw_ms", Json.Float raw);
        ("cal_ms", Json.Float (raw *. fac));
        ("ok", Json.Bool ok);
      ]
    :: a.ops_json

let op_counter = ref 0

let next_op () =
  incr op_counter;
  !op_counter

(* Time one operation inside its root span; [f op_id] returns [Ok data] or
   [Error why], and [k] gets the data and the calibration factor. *)
let run_op a ~kind f k =
  let id = next_op () in
  let t = measure (fun () -> fst (Span.timed ~op:id "op" (fun () -> f id))) in
  let res = match t.res with Ok r -> r | Error e -> Error e in
  record_op a ~id ~kind ~raw:t.raw ~fac:t.fac ~ok:(Result.is_ok res);
  match res with
  | Ok d -> k d t.fac
  | Error why -> fail a (Printf.sprintf "op %d (%s): %s" id kind why)

(* Exact simulator counters and cache/accounting totals of one machine. *)
let add_machine a (m : Machine.t) =
  let c = m.Machine.c in
  addi a "sim.groups" c.Machine.groups;
  addi a "sim.useful_ops" c.Machine.useful_ops;
  addi a "sim.squashed_ops" c.Machine.squashed_ops;
  addi a "sim.wild_loads" c.Machine.wild_loads;
  addi a "sim.spec_loads" c.Machine.spec_loads;
  addi a "sim.chk_recoveries" c.Machine.chk_recoveries;
  List.iter
    (fun (n, (x : Cache.t)) ->
      addi a (n ^ ".acc") x.Cache.accesses;
      addi a (n ^ ".miss") x.Cache.misses)
    [ ("l1i", m.Machine.l1i); ("l1d", m.Machine.l1d); ("l2", m.Machine.l2); ("l3", m.Machine.l3) ];
  List.iter
    (fun cat ->
      add a ("acct." ^ Accounting.name cat) (Accounting.get m.Machine.acc cat))
    Accounting.all_categories

let sim_layers a =
  [
    ("sim.groups", get a "sim.groups");
    ("sim.useful_ops", get a "sim.useful_ops");
    ("sim.squashed_ops", get a "sim.squashed_ops");
    ("sim.wild_loads", get a "sim.wild_loads");
    ("sim.spec_loads", get a "sim.spec_loads");
    ("sim.chk_recoveries", get a "sim.chk_recoveries");
  ]
  @ List.map
      (fun n -> ("cache." ^ n ^ "_miss_ratio", ratio (get a (n ^ ".miss")) (get a (n ^ ".acc"))))
      [ "l1i"; "l1d"; "l2"; "l3" ]
  @ List.map
      (fun cat ->
        let n = Accounting.name cat in
        ("acct." ^ n ^ "_cycles", get a ("acct." ^ n)))
      Accounting.all_categories

(* A plain detailed [Driver.run] inside the current op, with its span. *)
let detail_run a ~op ~traced c input =
  let w0 = if traced then Gc.minor_words () else 0. in
  let (code, out, m), ms = Span.timed ~op "driver.run" (fun () -> Driver.run c input) in
  if traced then add a "sim.detail.minor_words" (Gc.minor_words () -. w0);
  add_machine a m;
  (code, out, m, ms)

(* Plain-run bookkeeping once the op's factor is known. *)
let detail_done a ~fac ~ms (m : Machine.t) =
  sample a "sim.detail.ms" (ms *. fac);
  add a "sim.detail.ms" (ms *. fac);
  addi a "sim.detail.groups" m.Machine.c.Machine.groups;
  add a "sim.cycles" (Accounting.total m.Machine.acc);
  add a "sim.ms" (ms *. fac)

let detail_layers a =
  [
    ("sim.detail.ms", median (samples a "sim.detail.ms"));
    ( "sim.detail.ns_per_group",
      1e6 *. ratio (get a "sim.detail.ms") (get a "sim.detail.groups") );
    ( "sim.alloc_words_per_group",
      ratio (get a "sim.detail.minor_words") (get a "sim.detail.groups") );
  ]

(* Same (binary, input) must give the same cycles every time. *)
let repeat_check seen key cycles =
  match Hashtbl.find_opt seen key with
  | None ->
      Hashtbl.replace seen key cycles;
      Ok ()
  | Some c when Int64.equal (Int64.bits_of_float c) (Int64.bits_of_float cycles) -> Ok ()
  | Some c -> Error (Printf.sprintf "cycles %.0f differ from an earlier repeat (%.0f)" cycles c)

(* ---- workload results ------------------------------------------------- *)

type result = {
  setup_s : float;
  e2e : (string * float) list;
      (** workload-computed end-to-end metrics, from the untraced pass *)
  layers : (string * float) list;  (** per-layer metrics, traced pass *)
  untraced : acc;
  traced : acc option;
  notes : string list;
}

(* Run [pass] untraced and, with [--trace 1], once more traced. *)
let passes ~trace pass =
  let untraced = pass ~traced:false in
  let traced =
    if trace then begin
      Span.enabled := true;
      let t = pass ~traced:true in
      Span.enabled := false;
      Some t
    end
    else None
  in
  (untraced, traced)

(* Every deck is sized to take about [deck_seconds] at the reference speed. *)
let deck_seconds = 15.

let n_ops ~seconds deck =
  max 3 (int_of_float (Float.round (float (Array.length deck) *. seconds /. deck_seconds)))

(* ---- compile ---------------------------------------------------------- *)

(* One cold epicc-style job per op.  Four pairs; the one of middle cost
   (bzip2 at ILP-CS) comes ten times, so that the median and the tail both
   fall among its repeats rather than on the edge between two pairs.  The
   programs are those whose reference interpretation (repeated with every
   set-up) is cheapest; the 1-8 s ILP compiles of gcc, parser and crafty
   would not fit a run. *)
let compile_deck =
  let pairs =
    [ ("twolf", Config.O_NS, 4); ("mcf", Config.ILP_CS, 4); ("bzip2", Config.ILP_CS, 10);
      ("gap", Config.ILP_CS, 4) ]
  in
  Array.of_list
    (List.concat_map
       (fun (n, level, k) -> List.init k (fun _ -> (Suite.find_exn n, level)))
       pairs)

let layer_of_record name =
  let starts p = String.starts_with ~prefix:p name in
  if starts "frontend" then "frontend"
  else if List.mem name [ "profile (train)"; "points-to analysis" ] then "analysis"
  else if List.mem name [ "indirect-call specialization"; "inline" ] || starts "classical"
  then "opt"
  else if
    List.mem name
      [
        "loop peeling"; "hyperblock formation"; "superblock formation";
        "loop unrolling"; "height reduction"; "control speculation";
        "data speculation";
      ]
  then "ilp"
  else if
    List.mem name
      [ "cold-code sinking"; "register allocation"; "list scheduling"; "bundling and layout" ]
  then "sched"
  else "driver"

let compile_layers = [ "frontend"; "analysis"; "opt"; "ilp"; "sched" ]

let run_compile ~seed ~seconds ~trace =
  let programs =
    List.sort_uniq compare (Array.to_list (Array.map (fun ((w : Workload.t), _) -> w.Workload.short) compile_deck))
  in
  let refs, setup_s =
    setups n_setups (fun { step } ->
        let s = Session.create ~jobs:1 () in
        List.map
          (fun short ->
            let w = Suite.find_exn short in
            let r, _ = fst (step (fun () -> Session.reference s ~source:w.Workload.source ~input:w.Workload.reference)) in
            (short, r))
          programs)
  in
  let refs = List.hd refs in
  let rng = Random.State.make [| seed; 1 |] in
  let pass ~traced =
    let a = new_acc () in
    let seen = Hashtbl.create 32 in
    let items = plan rng compile_deck (n_ops ~seconds compile_deck) in
    Array.iter
      (fun ((w : Workload.t), level) ->
        let kind = w.Workload.short ^ "/" ^ Config.level_name level in
        run_op a ~kind
          (fun op ->
            let w0 = if traced then Gc.minor_words () else 0. in
            let c, compile_ms =
              Span.timed ~op "driver.compile" (fun () ->
                  Driver.compile ~config:(config_for level w) ~train:w.Workload.train w.Workload.source)
            in
            if traced then add a "compile.minor_words" (Gc.minor_words () -. w0);
            (* collect the compiler's garbage here, in the op but outside
               both spans, so that the run's time is the simulator's *)
            Gc.full_major ();
            let code, out, m, run_ms = detail_run a ~op ~traced c w.Workload.reference in
            let cycles = Accounting.total m.Machine.acc in
            if (code, out) <> List.assoc w.Workload.short refs then
              Error "output differs from the reference interpretation"
            else
              Result.map
                (fun () -> (c, compile_ms, run_ms, m, cycles))
                (repeat_check seen kind cycles))
          (fun (c, compile_ms, run_ms, m, cycles) fac ->
            let ts = c.Driver.transform_stats in
            detail_done a ~fac ~ms:run_ms m;
            sample a "cycles" cycles;
            addi a "code_bytes" ts.Driver.code_bytes;
            addi a "frontend.instrs" ts.Driver.instrs_after_frontend;
            add a "compile.ms" (compile_ms *. fac);
            addi a "opt.inlined_sites" ts.Driver.inlined_sites;
            addi a "opt.instrs_after_classical" ts.Driver.instrs_after_classical;
            addi a "ilp.hyperblocks" ts.Driver.hyperblocks;
            addi a "ilp.superblocks" ts.Driver.superblocks;
            addi a "ilp.tail_dup_instrs" ts.Driver.tail_dup_instrs;
            addi a "ilp.spec_loads" ts.Driver.marked_spec_loads;
            addi a "ilp.instrs_final" ts.Driver.instrs_final;
            addi a "sched.static_bundles" ts.Driver.static_bundles;
            if ts.Driver.fallback <> None then add a "compile.fallbacks" 1.;
            (* the pass records carry processor seconds; whatever of the
               compile span they do not cover is the driver's own *)
            let attributed = ref 0. in
            List.iter
              (fun (r : Passes.record) ->
                let ms = r.Passes.wall_s *. 1000. *. fac in
                let layer = layer_of_record r.Passes.name in
                if layer <> "driver" then begin
                  attributed := !attributed +. ms;
                  add a (layer ^ ".ms") ms
                end;
                List.iter
                  (fun (_, h, m) ->
                    addi a "passman.hits" h;
                    addi a "passman.lookups" (h + m))
                  r.Passes.cache)
              c.Driver.pass_records;
            let unattributed = (compile_ms *. fac) -. !attributed in
            add a "driver.unattributed_ms" unattributed;
            if traced && unattributed < 0. then begin
              Printf.printf "span error: %s: pass records exceed the compile span by %.3f ms\n" kind
                (-.unattributed);
              add a "span_errors" 1.
            end))
      items;
    a
  in
  let u, t = passes ~trace pass in
  let n a = float a.attempted in
  let layers =
    match t with
    | None -> []
    | Some a ->
        List.map (fun l -> (l ^ ".ms", get a (l ^ ".ms") /. n a)) compile_layers
        @ [
            ("driver.unattributed_ms", get a "driver.unattributed_ms" /. n a);
            ("frontend.instrs", get a "frontend.instrs" /. n a);
            ("opt.inlined_sites", get a "opt.inlined_sites");
            ("opt.instrs_after_classical", get a "opt.instrs_after_classical");
            ("ilp.hyperblocks", get a "ilp.hyperblocks");
            ("ilp.superblocks", get a "ilp.superblocks");
            ("ilp.tail_dup_instrs", get a "ilp.tail_dup_instrs");
            ("ilp.spec_loads", get a "ilp.spec_loads");
            ("ilp.instrs_final", get a "ilp.instrs_final");
            ("sched.static_bundles", get a "sched.static_bundles");
            ("compile.fallbacks", get a "compile.fallbacks");
            ("passman.cache_hit_ratio", ratio (get a "passman.hits") (get a "passman.lookups"));
            ("compile.alloc_mwords", get a "compile.minor_words" /. 1e6 /. n a);
          ]
        @ detail_layers a @ sim_layers a
  in
  {
    setup_s;
    e2e =
      [
        ("compile_kinstr_per_s", ratio (get u "frontend.instrs") (get u "compile.ms"));
        ("sim_mcycles_per_s", ratio (get u "sim.cycles") (get u "sim.ms") /. 1000.);
        ("sim_cycles_geomean", geomean (samples u "cycles"));
        ("code_bytes", get u "code_bytes");
      ];
    layers;
    untraced = u;
    traced = t;
    notes = [];
  }

(* ---- shared set-up for simulate and experiment ------------------------ *)

let ilp_programs = [ "mcf"; "bzip2"; "vortex" ]

(* Compile the ILP-CS binaries; returns them with the set-up compile rate
   (IR kinstr per calibrated second) and their total code bytes. *)
let compile_binaries { step } =
  let bins =
    List.map
      (fun short ->
        let w = Suite.find_exn short in
        let c, ms =
          step (fun () ->
              Driver.compile ~config:(config_for Config.ILP_CS w) ~train:w.Workload.train w.Workload.source)
        in
        (short, (w, c, ms)))
      ilp_programs
  in
  let instrs =
    sum (List.map (fun (_, (_, c, _)) -> float c.Driver.transform_stats.Driver.instrs_after_frontend) bins)
  in
  let ms = sum (List.map (fun (_, (_, _, ms)) -> ms) bins) in
  let bytes =
    sum (List.map (fun (_, (_, c, _)) -> float c.Driver.transform_stats.Driver.code_bytes) bins)
  in
  (List.map (fun (s, (w, c, _)) -> (s, (w, c))) bins, ratio instrs ms, bytes)

(* ---- simulate --------------------------------------------------------- *)

(* Detailed runs of ILP-CS binaries on their evaluation inputs, plus the
   ~10x scaled mcf input.  The counts put the median inside the bzip2 runs
   and the tail inside the mcf runs. *)
let simulate_deck =
  let rep n x = List.init n (fun _ -> x) in
  Array.of_list
    (rep 10 ("vortex", false) @ rep 14 ("bzip2", false) @ rep 12 ("mcf", false)
    @ rep 2 ("mcf", true))

let run_simulate ~seed ~seconds ~trace =
  let envs, setup_s =
    setups n_setups (fun { step } -> compile_binaries { step })
  in
  let rates = List.map (fun (_, r, _) -> r) envs in
  let bins, _, bytes = List.hd envs in
  let rng = Random.State.make [| seed; 2 |] in
  (* outputs are checked against the interpreter after the measured passes,
     once per input: interpreting the scaled inputs alone takes ~2 s, too
     much to repeat with every set-up *)
  let outputs = ref [] in
  let pass ~traced =
    let a = new_acc () in
    let seen = Hashtbl.create 16 in
    let items = plan rng simulate_deck (n_ops ~seconds simulate_deck) in
    Array.iter
      (fun (short, big) ->
        let w, c = List.assoc short bins in
        let input =
          if big then Option.get w.Workload.big_reference else w.Workload.reference
        in
        let kind = short ^ if big then "/big" else "" in
        run_op a ~kind
          (fun op ->
            let code, out, m, ms = detail_run a ~op ~traced c input in
            let cycles = Accounting.total m.Machine.acc in
            outputs := ((short, big), (code, out), op, a) :: !outputs;
            Result.map (fun () -> (m, ms, cycles)) (repeat_check seen kind cycles))
          (fun (m, ms, cycles) fac ->
            detail_done a ~fac ~ms m;
            sample a "cycles" cycles))
      items;
    a
  in
  let u, t = passes ~trace pass in
  let s = Session.create ~jobs:1 () in
  List.iter
    (fun ((short, big), got, op, a) ->
      let w = Suite.find_exn short in
      let input = if big then Option.get w.Workload.big_reference else w.Workload.reference in
      let want, _ = Session.reference s ~source:w.Workload.source ~input in
      if got <> want then
        fail a (Printf.sprintf "op %d (%s): output differs from the reference interpretation" op short))
    !outputs;
  {
    setup_s;
    e2e =
      [
        ("compile_kinstr_per_s", median rates);
        ("sim_mcycles_per_s", ratio (get u "sim.cycles") (get u "sim.ms") /. 1000.);
        ("sim_cycles_geomean", geomean (samples u "cycles"));
        ("code_bytes", bytes);
      ];
    layers = (match t with None -> [] | Some a -> detail_layers a @ sim_layers a);
    untraced = u;
    traced = t;
    notes = [];
  }

(* ---- experiment ------------------------------------------------------- *)

type ekind = Sampled | Fused | Ckpt

let ekind_name = function Sampled -> "sampled" | Fused -> "fused" | Ckpt -> "checkpoint"

let experiment_deck =
  Array.of_list
    (List.concat
       (List.init 6 (fun _ ->
            List.concat_map (fun p -> [ (p, Sampled); (p, Fused); (p, Ckpt) ]) ilp_programs)))

(* Shaped like the default causal plan: category targets x the default
   factors, plus one speedup-0.0 experiment whose totals must equal the
   plain run's bit for bit. *)
let experiment_set =
  List.concat_map
    (fun cat ->
      List.map
        (fun f -> { Accounting.target = Accounting.Target_category cat; speedup = f })
        Epic_causal.Causal.default_factors)
    Accounting.[ Int_load_bubble; Front_end; Br_mispredict; Micropipe ]
  @ [ { Accounting.target = Accounting.Target_category Accounting.Unstalled; speedup = 0.0 } ]

type full = {
  f_code : int;
  f_out : string;
  f_cycle : int;
  f_totals : float array;
  f_groups : int;
  f_useful : int;
  f_squashed : int;
}

let full_of (code, out, (m : Machine.t)) =
  {
    f_code = code;
    f_out = out;
    f_cycle = m.Machine.cycle;
    f_totals = Array.copy m.Machine.acc.Accounting.totals;
    f_groups = m.Machine.c.Machine.groups;
    f_useful = m.Machine.c.Machine.useful_ops;
    f_squashed = m.Machine.c.Machine.squashed_ops;
  }

let run_experiment ~seed ~seconds ~trace =
  let envs, setup_s =
    setups n_setups (fun { step } ->
        let bins, rate, bytes = compile_binaries { step } in
        let fulls =
          List.map
            (fun (short, ((w : Workload.t), c)) ->
              (short, full_of (fst (step (fun () -> Driver.run c w.Workload.reference)))))
            bins
        in
        (bins, fulls, rate, bytes))
  in
  let rates = List.map (fun (_, _, r, _) -> r) envs in
  let bins, fulls, _, bytes = List.hd envs in
  let n_exps = List.length experiment_set in
  let rng = Random.State.make [| seed; 3 |] in
  let pass ~traced:_ =
    let a = new_acc () in
    let items = plan rng experiment_deck (n_ops ~seconds experiment_deck) in
    Array.iter
      (fun (short, kind) ->
        let (w : Workload.t), c = List.assoc short bins in
        let full = List.assoc short fulls in
        let input = w.Workload.reference in
        let same_run code out = code = full.f_code && out = full.f_out in
        run_op a ~kind:(short ^ "/" ^ ekind_name kind)
          (fun op ->
            match kind with
            | Sampled ->
                let (code, out, m), ms =
                  Span.timed ~op "driver.run.sampled" (fun () ->
                      Driver.run ~sampling:Sampling.default_plan c input)
                in
                add_machine a m;
                let su = Option.get (Machine.sample_summary m) in
                if not (same_run code out) then Error "sampled output differs from the full run"
                else Ok (fun fac ->
                    let est = Accounting.total m.Machine.acc in
                    let full_total = Array.fold_left ( +. ) 0. full.f_totals in
                    sample a "cycles" est;
                    sample a "sampling.err_pct" (100. *. Float.abs (est -. full_total) /. full_total);
                    sample a "sampling.ci95_pct" (100. *. su.Sampling.s_ci95 /. est);
                    sample a "sim.sampled.ms" (ms *. fac);
                    add a "sampled.ms" (ms *. fac);
                    addi a "sampled.detail_groups" su.Sampling.s_detail_groups;
                    addi a "sampled.total_groups" su.Sampling.s_total_groups;
                    add a "sim.cycles" est;
                    add a "sim.ms" (ms *. fac))
            | Fused ->
                let (code, out, m), ms =
                  Span.timed ~op "driver.run.fused" (fun () ->
                      Driver.run ~experiments:experiment_set c input)
                in
                add_machine a m;
                let accts = Machine.fused_accounts m in
                let zero = accts.(Array.length accts - 1) in
                if not (same_run code out) then Error "fused output differs from the full run"
                else if not (bits_equal m.Machine.acc.Accounting.totals full.f_totals) then
                  Error "fused host accounting differs from the plain run"
                else if not (bits_equal zero.Accounting.totals full.f_totals) then
                  Error "speedup-0.0 experiment totals differ from the plain run"
                else Ok (fun fac ->
                    let cycles = Accounting.total m.Machine.acc in
                    sample a "cycles" cycles;
                    sample a "sim.fused.ms" (ms *. fac);
                    add a "fused.ms" (ms *. fac);
                    addi a "fused.groups" m.Machine.c.Machine.groups;
                    add a "sim.cycles" cycles;
                    add a "sim.ms" (ms *. fac))
            | Ckpt ->
                let at = full.f_groups / 2 in
                let (_, _, m0), ms0 =
                  Span.timed ~op "driver.run.checkpoint" (fun () ->
                      Driver.run ~checkpoint_at:at c input)
                in
                add_machine a m0;
                (match Machine.checkpoint m0 with
                | None -> Error "no checkpoint captured"
                | Some ck ->
                    let (code, out, m), ms1 =
                      Span.timed ~op "driver.resume" (fun () -> Driver.resume c ck)
                    in
                    add_machine a m;
                    let cm = m.Machine.c in
                    if not (same_run code out) then Error "resumed output differs"
                    else if
                      m.Machine.cycle <> full.f_cycle
                      || cm.Machine.groups <> full.f_groups
                      || cm.Machine.useful_ops <> full.f_useful
                      || cm.Machine.squashed_ops <> full.f_squashed
                      || not (bits_equal m.Machine.acc.Accounting.totals full.f_totals)
                    then Error "resumed run is not bit-identical to the uninterrupted one"
                    else Ok (fun fac ->
                        let cycles = Accounting.total m.Machine.acc in
                        sample a "cycles" cycles;
                        sample a "sim.checkpoint.ms" (ms0 *. fac);
                        sample a "sim.resume.ms" (ms1 *. fac);
                        add a "capture.ms" (ms0 *. fac);
                        addi a "capture.groups" m0.Machine.c.Machine.groups;
                        (* the capture run simulates everything, the resume
                           the part after the checkpoint *)
                        add a "sim.cycles"
                          (Accounting.total m0.Machine.acc +. cycles
                          -. float (Machine.checkpoint_cycle ck));
                        add a "sim.ms" ((ms0 +. ms1) *. fac))))
          (fun k fac -> k fac))
      items;
    a
  in
  let u, t = passes ~trace pass in
  let layers =
    match t with
    | None -> []
    | Some a ->
        let detail_ns = 1e6 *. ratio (get a "capture.ms") (get a "capture.groups") in
        let dg = get a "sampled.detail_groups" and tg = get a "sampled.total_groups" in
        let warm_ns = ((get a "sampled.ms" *. 1e6) -. (dg *. detail_ns)) /. (tg -. dg) in
        [
          ("sim.sampled.ms", median (samples a "sim.sampled.ms"));
          ("sampling.detail_share", ratio dg tg);
          ("sim.warm.ns_per_group", warm_ns);
          ("sampling.ci95_pct", median (samples a "sampling.ci95_pct"));
          ("sampling.err_pct", geomean (samples a "sampling.err_pct"));
          ("sim.fused.ms", median (samples a "sim.fused.ms"));
          ( "sim.fused.ns_per_group_per_exp",
            1e6 *. ratio (get a "fused.ms") (get a "fused.groups" *. float n_exps) );
          ("sim.checkpoint.ms", median (samples a "sim.checkpoint.ms"));
          ("sim.resume.ms", median (samples a "sim.resume.ms"));
        ]
        @ sim_layers a
  in
  {
    setup_s;
    e2e =
      [
        ("compile_kinstr_per_s", median rates);
        ("sim_mcycles_per_s", ratio (get u "sim.cycles") (get u "sim.ms") /. 1000.);
        ("sim_cycles_geomean", geomean (samples u "cycles"));
        ("code_bytes", bytes);
      ];
    layers;
    untraced = u;
    traced = t;
    notes =
      [ Printf.sprintf "sample_err_pct (geomean, sampled vs full): %.6f"
          (geomean (samples u "sampling.err_pct")) ];
  }

(* ---- serve ------------------------------------------------------------ *)

let serve_programs = [ "mcf"; "bzip2" ]

(* Compile misses all build this one program, so they form one latency
   class and p99 falls inside it. *)
let miss_program = "vortex"

type req = Hit | Fresh | Cmiss | Stats | Ping

let req_name = function
  | Hit -> "run-hit" | Fresh -> "run-fresh" | Cmiss -> "compile-miss"
  | Stats -> "stats" | Ping -> "ping"

(* 4498 requests: mostly runs repeating a set-up request (run-cache hits),
   6 with a fresh input on a cached compile (a simulation), 60 GCC-level
   compiles with a fresh train vector (compile misses), 32 stats and pings.
   p99 falls inside the compile misses. *)
let serve_deck =
  let each n kind = List.concat_map (fun p -> List.init n (fun _ -> (p, kind))) serve_programs in
  Array.of_list
    (each 2200 Hit @ each 3 Fresh @ each 30 Cmiss @ each 8 Stats @ each 8 Ping)

let ints a = Json.List (Array.to_list (Array.map (fun v -> Json.Int (Int64.to_int v)) a))

let run_line ~id (w : Workload.t) ~input =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id); ("op", Json.Str "run"); ("workload", Json.Str w.Workload.short);
         ("source", Json.Str w.Workload.source); ("level", Json.Str "ilp-cs");
         ("pointer_analysis", Json.Bool w.Workload.pointer_analysis);
         ("train", ints w.Workload.train); ("input", ints input);
       ])

let compile_line ~id (w : Workload.t) ~train =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id); ("op", Json.Str "compile"); ("source", Json.Str w.Workload.source);
         ("level", Json.Str "gcc"); ("pointer_analysis", Json.Bool w.Workload.pointer_analysis);
         ("train", ints train);
       ])

let op_line ~id op = Json.to_string (Json.Obj [ ("id", Json.Int id); ("op", Json.Str op) ])

(* A response's result after [normalize_time], serialized, and its
   simulated cycles (0 when it has none); [Error] unless it is [ok]. *)
let response_result resp =
  match Json.of_string resp with
  | Error e -> Error ("unparsable response: " ^ e)
  | Ok j -> (
      match (Json.member "ok" j, Json.member "result" j) with
      | Some (Json.Bool true), Some r ->
          let cycles =
            Option.value ~default:0. (Option.bind (Json.member "cycles" r) Json.to_float_opt)
          in
          Ok (Json.to_string (Export.normalize_time r), cycles)
      | _ -> Error ("request failed: " ^ resp))

let run_serve ~seed ~seconds ~trace =
  let envs, setup_s =
    setups n_setups (fun { step } ->
        let s = Session.create ~jobs:1 () in
        let get r = match response_result r with Ok v -> v | Error e -> failwith e in
        let get_json r = fst (get r) in
        let cold =
          List.map
            (fun short ->
              let w = Suite.find_exn short in
              let run, ms =
                step (fun () ->
                    Protocol.execute s (Protocol.parse (run_line ~id:0 w ~input:w.Workload.reference)))
              in
              (short, (get run, ms)))
            serve_programs
        in
        let m = Suite.find_exn miss_program in
        let cold_compile =
          get_json (fst (step (fun () -> Protocol.execute s (Protocol.parse (compile_line ~id:0 m ~train:[||])))))
        in
        let bytes =
          sum
            (List.map
               (fun short ->
                 let w = Suite.find_exn short in
                 let c, _, _ =
                   Session.compile s ~config:(config_for Config.ILP_CS w) ~desc:None
                     ~train:w.Workload.train w.Workload.source
                 in
                 float c.Driver.transform_stats.Driver.code_bytes)
               serve_programs)
        in
        (* cold requests: compile, interpretation and simulation *)
        let sim_rate =
          ratio
            (sum (List.map (fun ((_, c), _) -> c) (List.map snd cold)))
            (sum (List.map (fun (_, ms) -> ms) (List.map snd cold)))
          /. 1000.
        in
        (s, (List.map (fun (p, ((r, _), _)) -> (p, r)) cold, cold_compile), sim_rate, bytes))
  in
  let sim_rates = List.map (fun (_, _, r, _) -> r) envs in
  let s, (cold, cold_compile), _, bytes = List.hd envs in
  (* every compile miss builds the same program at the same level *)
  let miss_instrs =
    match Json.of_string cold_compile with
    | Ok j -> (
        match Option.bind (Json.member "transform_stats" j) (Json.member "instrs_after_frontend") with
        | Some (Json.Int n) -> float n
        | _ -> 0.)
    | Error _ -> 0.
  in
  (* a second set-up's session has the same compiles and has never seen a
     fresh input: it gives the cold result each fresh request must match *)
  let verifier, _, _, _ = List.nth envs 1 in
  let rng = Random.State.make [| seed; 4 |] in
  let pass ~traced =
    let a = new_acc () in
    let items = plan rng serve_deck (n_ops ~seconds serve_deck) in
    let lines =
      Array.map
        (fun (short, kind) ->
          let w = Suite.find_exn short in
          let id = Random.State.bits rng in
          match kind with
          | Hit -> run_line ~id w ~input:w.Workload.reference
          | Fresh -> run_line ~id w ~input:(fresh rng w.Workload.reference)
          | Cmiss ->
              let m = Suite.find_exn miss_program in
              compile_line ~id m ~train:(fresh rng m.Workload.train)
          | Stats -> op_line ~id "stats"
          | Ping -> op_line ~id "ping")
        items
    in
    let st0 = Session.stats s in
    let n = Array.length items in
    let responses = Array.make n "" in
    let raws = Array.make n 0. in
    let ids = Array.make n 0 in
    let parse_ms = Array.make n 0. and exec_ms = Array.make n 0. in
    let run_miss = Array.make n false in
    let group_fac = Array.make n 1. in
    (* checks and bookkeeping, between groups and outside their timing;
       responses are dropped once checked *)
    let check j =
      let short, kind = items.(j) in
      let fac = group_fac.(j) in
      let check =
        match response_result responses.(j) with
        | Error e -> Error e
        | Ok (r, cycles) -> (
            match kind with
            | Hit ->
                if r = List.assoc short cold then Ok cycles
                else Error "hit differs from the cold result"
            | Cmiss ->
                if r = cold_compile then Ok cycles
                else Error "compile result differs from the cold compile"
            | Fresh -> (
                match response_result (Protocol.execute verifier (Protocol.parse lines.(j))) with
                | Ok (v, _) when v = r -> Ok cycles
                | _ -> Error "fresh-input result differs from a cold session's")
            | Stats | Ping -> Ok cycles)
      in
      record_op a ~id:ids.(j) ~kind:(short ^ "/" ^ req_name kind) ~raw:raws.(j) ~fac
        ~ok:(Result.is_ok check);
      (match check with
      | Error why -> fail a (Printf.sprintf "op %d (%s): %s" ids.(j) (req_name kind) why)
      | Ok cycles ->
          add a "response_bytes" (float (String.length responses.(j)));
          if kind = Cmiss then begin
            add a "cmiss.instrs" miss_instrs;
            add a "cmiss.ms" (exec_ms.(j) *. fac)
          end;
          sample a "protocol.parse_us" (parse_ms.(j) *. fac *. 1000.);
          if kind = Hit || kind = Fresh then begin
            sample a "cycles" cycles;
            if traced then
              if run_miss.(j) then sample a "protocol.execute_miss_ms" (exec_ms.(j) *. fac)
              else sample a "protocol.execute_hit_us" (exec_ms.(j) *. fac *. 1000.)
          end);
      responses.(j) <- ""
    in
    let i = ref 0 in
    while !i < n do
      (* a group of consecutive requests lasting >= 50 ms shares one
         calibration factor *)
      let first = !i and elapsed = ref 0. in
      while !i < n && !elapsed < 20. do
        let j = !i in
        let id = next_op () in
        ids.(j) <- id;
        let t0 = now () in
        (try
           ignore
             (Span.timed ~op:id "op" (fun () ->
                  let req, pms = Span.timed ~op:id "protocol.parse" (fun () -> Protocol.parse lines.(j)) in
                  let before = if traced then Some (Session.stats s) else None in
                  let resp, ems = Span.timed ~op:id "protocol.execute" (fun () -> Protocol.execute s req) in
                  (match before with
                  | Some b -> run_miss.(j) <- (Session.stats s).Session.st_run_misses > b.Session.st_run_misses
                  | None -> ());
                  parse_ms.(j) <- pms;
                  exec_ms.(j) <- ems;
                  responses.(j) <- resp))
         with e -> responses.(j) <- "exception: " ^ Printexc.to_string e);
        raws.(j) <- (now () -. t0) *. 1000.;
        elapsed := !elapsed +. raws.(j);
        incr i
      done;
      kernel ();
      Array.fill group_fac first (!i - first) (current_factor ());
      for j = first to !i - 1 do check j done
    done;
    let st1 = Session.stats s in
    let d f = float (f st1 - f st0) in
    add a "compile_hits" (d (fun s -> s.Session.st_compile_hits));
    add a "compile_misses" (d (fun s -> s.Session.st_compile_misses));
    add a "run_hits" (d (fun s -> s.Session.st_run_hits));
    add a "run_misses" (d (fun s -> s.Session.st_run_misses));
    add a "evictions"
      (d (fun s -> s.Session.st_compile_evictions + s.Session.st_run_evictions));
    add a "inflight_waits" (d (fun s -> s.Session.st_inflight_waits));
    a
  in
  let u, t = passes ~trace pass in
  let layers =
    match t with
    | None -> []
    | Some a ->
        [
          ("protocol.parse_us", median (samples a "protocol.parse_us"));
          ("protocol.execute_hit_us", median (samples a "protocol.execute_hit_us"));
          ("protocol.execute_miss_ms", median (samples a "protocol.execute_miss_ms"));
          ("serve.response_bytes", get a "response_bytes" /. float a.attempted);
          ( "session.compile_hit_ratio",
            ratio (get a "compile_hits") (get a "compile_hits" +. get a "compile_misses") );
          ("session.run_hit_ratio", ratio (get a "run_hits") (get a "run_hits" +. get a "run_misses"));
          ("session.evictions", get a "evictions");
          ("session.inflight_waits", get a "inflight_waits");
        ]
  in
  {
    setup_s;
    e2e =
      [
        ("compile_kinstr_per_s", ratio (get u "cmiss.instrs") (get u "cmiss.ms"));
        ("sim_mcycles_per_s", median sim_rates);
        ("sim_cycles_geomean", geomean (samples u "cycles"));
        ("code_bytes", bytes);
      ];
    layers;
    untraced = u;
    traced = t;
    notes = [];
  }

(* ---- metrics and output ----------------------------------------------- *)

let end_to_end_units =
  [
    ("setup_s", "s"); ("op_p50_ms", "ms"); ("op_tail_ms", "ms");
    ("compile_kinstr_per_s", "kinstr/s"); ("sim_mcycles_per_s", "Mcycles/s");
    ("sim_cycles_geomean", "cycles"); ("code_bytes", "bytes");
  ]

let per_layer_units =
  let ms = "ms" and count = "count" and r = "ratio" in
  [
    ("frontend.ms", ms); ("frontend.instrs", count); ("analysis.ms", ms); ("opt.ms", ms);
    ("opt.inlined_sites", count); ("opt.instrs_after_classical", count); ("ilp.ms", ms);
    ("ilp.hyperblocks", count); ("ilp.superblocks", count); ("ilp.tail_dup_instrs", count);
    ("ilp.spec_loads", count); ("ilp.instrs_final", count); ("sched.ms", ms);
    ("sched.static_bundles", count); ("driver.unattributed_ms", ms);
    ("compile.fallbacks", count); ("passman.cache_hit_ratio", r);
    ("compile.alloc_mwords", "Mwords"); ("sim.detail.ms", ms); ("sim.detail.ns_per_group", "ns");
    ("sim.groups", count); ("sim.useful_ops", count); ("sim.squashed_ops", count);
    ("sim.wild_loads", count); ("sim.spec_loads", count); ("sim.chk_recoveries", count);
    ("cache.l1i_miss_ratio", r); ("cache.l1d_miss_ratio", r); ("cache.l2_miss_ratio", r);
    ("cache.l3_miss_ratio", r);
  ]
  @ List.map (fun c -> ("acct." ^ Accounting.name c ^ "_cycles", "cycles")) Accounting.all_categories
  @ [
      ("sim.alloc_words_per_group", "words"); ("sim.sampled.ms", ms);
      ("sampling.detail_share", r); ("sim.warm.ns_per_group", "ns"); ("sampling.ci95_pct", "%");
      ("sampling.err_pct", "%"); ("sim.fused.ms", ms); ("sim.fused.ns_per_group_per_exp", "ns");
      ("sim.checkpoint.ms", ms); ("sim.resume.ms", ms); ("protocol.parse_us", "us");
      ("protocol.execute_hit_us", "us"); ("protocol.execute_miss_ms", ms);
      ("serve.response_bytes", "bytes"); ("session.compile_hit_ratio", r);
      ("session.run_hit_ratio", r); ("session.evictions", count);
      ("session.inflight_waits", count); ("host.calib_ms", ms); ("host.calib_iqr_pct", "%");
      ("host.op_p50_raw_ms", ms); ("host.peak_rss_mb", "MB"); ("trace.overhead_pct", "%");
      ("trace.span_errors", count);
    ]

let metrics_json l units =
  Json.Obj
    (List.map
       (fun (name, unit) ->
         let v = Option.value ~default:0. (List.assoc_opt name l) in
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
       units)

let usage () =
  prerr_endline
    "usage: bench.exe --workload compile|simulate|experiment|serve --seed N \
     --seconds S --trace 0|1 [--trace-file FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let trace_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "");
      ("--seed", Arg.Set_int seed, "");
      ("--seconds", Arg.Set_float seconds, "");
      ("--trace", Arg.Set_int trace, "");
      ("--trace-file", Arg.Set_string trace_file, "");
    ]
    (fun _ -> usage ())
    "";
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let run =
    match !workload with
    | "compile" -> run_compile
    | "simulate" -> run_simulate
    | "experiment" -> run_experiment
    | "serve" -> run_serve
    | _ -> usage ()
  in
  kernel ();
  kernel ();
  let r = run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  let u = r.untraced in
  let p50 = median u.cal and p50_raw = median u.raw in
  let tail_v, tail_pct, beyond = tail u.cal in
  let k_med = median !kernels in
  let q1, q3 = quartiles !kernels in
  Printf.printf "workload %s: seed %d, %d ops, set-up %.3f s (median of %d)\n" !workload !seed
    u.attempted r.setup_s n_setups;
  Printf.printf "calibration: kernel median %.3f ms, IQR %.1f%% over %d runs (k_ref %.3f ms)\n"
    k_med (100. *. (q3 -. q1) /. k_med) (List.length !kernels) Calib.k_ref_ms;
  Printf.printf "op_p50: %.3f ms calibrated, %.3f ms raw\n" p50 p50_raw;
  Printf.printf "op_tail: p%.1f, %d ops beyond it, n=%d\n" tail_pct beyond u.attempted;
  List.iter print_endline r.notes;
  let failures = List.rev u.failures @ (match r.traced with Some t -> List.rev t.failures | None -> []) in
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) failures;
  let metrics =
    if !trace = 0 then
      metrics_json
        ([
           ("setup_s", r.setup_s); ("op_p50_ms", p50); ("op_tail_ms", tail_v);
         ]
        @ r.e2e)
        end_to_end_units
    else begin
      let t = Option.get r.traced in
      let spans = Span.spans () in
      let errors = Span.check spans in
      let n_errors = List.length errors + int_of_float (get t "span_errors") in
      List.iter (fun e -> Printf.printf "span error: %s\n" e) errors;
      let traced_p50 = median t.cal in
      Printf.printf "trace: %d spans, %d errors; traced op_p50 %.3f ms vs untraced %.3f ms\n"
        (List.length spans) n_errors traced_p50 p50;
      if !trace_file <> "" then
        Json.to_file !trace_file
          (Json.Obj
             [
               ("workload", Json.Str !workload); ("seed", Json.Int !seed);
               ("k_ref_ms", Json.Float Calib.k_ref_ms);
               ("kernel_ms", Json.List (List.rev_map (fun k -> Json.Float k) !kernels));
               ("untraced_ops", Json.List (List.rev u.ops_json));
               ("traced_ops", Json.List (List.rev t.ops_json));
               ("spans", Json.List (List.map Span.to_json spans));
             ]);
      metrics_json
        (r.layers
        @ [
            ("host.calib_ms", k_med); ("host.calib_iqr_pct", 100. *. (q3 -. q1) /. k_med);
            ("host.op_p50_raw_ms", p50_raw); ("host.peak_rss_mb", peak_rss_mb ());
            ("trace.overhead_pct", 100. *. ((traced_p50 /. p50) -. 1.));
            ("trace.span_errors", float n_errors);
          ])
        per_layer_units
    end
  in
  let attempted = u.attempted + match r.traced with Some t -> t.attempted | None -> 0 in
  let failed = List.length failures in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0)); ("attempted", Json.Int attempted);
            ("failed", Json.Int failed); ("metrics", metrics);
          ]))
