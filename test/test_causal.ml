(* The causal-profiling subsystem: the virtual-speedup hook must scale
   exactly what it claims to (and nothing else), a no-op experiment must be
   byte-invisible, a fused set must equal its members run alone, and every
   factor-1.0 delta must equal the cycles the baseline charged to its
   target. *)

open Epic_sim
module Causal = Epic_causal.Causal
module Acc = Accounting

(* Random charge traces: (func 0..3, category 0..8, cycles 0..200). *)
let charge_trace_gen =
  QCheck.Gen.(
    list_size (int_range 1 300)
      (triple (int_range 0 3) (int_range 0 8) (int_range 0 200)))

let cat_of_index i = List.nth Acc.all_categories i

let funcs = [| "f0"; "f1"; "f2"; "f3" |]

let replay ?experiment trace =
  let t = Acc.create () in
  Acc.set_experiment t experiment;
  (* charge through per-function bins, like the simulator's hot path *)
  let bins = Array.map (Acc.bins t) funcs in
  List.iter
    (fun (fi, ci, cyc) -> Acc.charge_bins t bins.(fi) (cat_of_index ci) cyc)
    trace;
  t

let close msg a b =
  let tol = 1e-9 *. Float.max 1.0 (Float.max (abs_float a) (abs_float b)) in
  if abs_float (a -. b) > tol then
    QCheck.Test.fail_reportf "%s: %.17g vs %.17g" msg a b

(* Property: a category experiment scales exactly the targeted category's
   charges by (1 - s) — every total and every per-function bin — and
   leaves every other category bit-identical to the unscaled replay. *)
let qcheck_category_scaling =
  QCheck.Test.make ~count:100 ~name:"category experiment scales its bins by the factor"
    (QCheck.make
       QCheck.Gen.(triple charge_trace_gen (int_range 0 8) (int_range 0 100)))
    (fun (trace, ci, pct) ->
      let s = float_of_int pct /. 100. in
      let cat = cat_of_index ci in
      let plain = replay trace in
      let scaled =
        replay ~experiment:{ Acc.target = Acc.Target_category cat; speedup = s }
          trace
      in
      List.iter
        (fun c ->
          let i = Acc.index c in
          if c = cat then
            close (Acc.name c) ((1. -. s) *. plain.Acc.totals.(i))
              scaled.Acc.totals.(i)
          else if plain.Acc.totals.(i) <> scaled.Acc.totals.(i) then
            QCheck.Test.fail_reportf "untargeted %s changed" (Acc.name c))
        Acc.all_categories;
      Array.iter
        (fun f ->
          List.iter
            (fun c ->
              let i = Acc.index c in
              let p = (Acc.bins plain f).(i) and q = (Acc.bins scaled f).(i) in
              if c = cat then close (f ^ "/" ^ Acc.name c) ((1. -. s) *. p) q
              else if p <> q then
                QCheck.Test.fail_reportf "untargeted %s/%s changed" f
                  (Acc.name c))
            Acc.all_categories)
        funcs;
      true)

(* Property: a function experiment scales exactly the targeted function's
   bins (every category), leaving every other function bit-identical; the
   global totals drop by exactly what the function's bins dropped. *)
let qcheck_func_scaling =
  QCheck.Test.make ~count:100 ~name:"function experiment scales only that function"
    (QCheck.make
       QCheck.Gen.(triple charge_trace_gen (int_range 0 3) (int_range 0 100)))
    (fun (trace, fi, pct) ->
      let s = float_of_int pct /. 100. in
      let f = funcs.(fi) in
      let plain = replay trace in
      let scaled =
        replay ~experiment:{ Acc.target = Acc.Target_func f; speedup = s } trace
      in
      Array.iter
        (fun g ->
          List.iter
            (fun c ->
              let i = Acc.index c in
              let p = (Acc.bins plain g).(i) and q = (Acc.bins scaled g).(i) in
              if g = f then close (g ^ "/" ^ Acc.name c) ((1. -. s) *. p) q
              else if p <> q then
                QCheck.Test.fail_reportf "untargeted %s/%s changed" g
                  (Acc.name c))
            Acc.all_categories)
        funcs;
      List.iter
        (fun c ->
          let i = Acc.index c in
          let expected =
            plain.Acc.totals.(i) -. (s *. (Acc.bins plain f).(i))
          in
          close ("total " ^ Acc.name c) expected scaled.Acc.totals.(i))
        Acc.all_categories;
      true)

(* Property: a (function, category) experiment scales exactly the one bin
   at their intersection — that function's, that category's — leaving
   every other (function, category) bin bit-identical; the global total of
   the targeted category drops by exactly what the bin dropped, all other
   totals are untouched. *)
let qcheck_func_category_scaling =
  QCheck.Test.make ~count:100
    ~name:"func-category experiment scales exactly the one bin"
    (QCheck.make
       QCheck.Gen.(
         pair charge_trace_gen
           (triple (int_range 0 3) (int_range 0 8) (int_range 0 100))))
    (fun (trace, (fi, ci, pct)) ->
      let s = float_of_int pct /. 100. in
      let f = funcs.(fi) and cat = cat_of_index ci in
      let plain = replay trace in
      let scaled =
        replay
          ~experiment:{ Acc.target = Acc.Target_func_category (f, cat); speedup = s }
          trace
      in
      Array.iter
        (fun g ->
          List.iter
            (fun c ->
              let i = Acc.index c in
              let p = (Acc.bins plain g).(i) and q = (Acc.bins scaled g).(i) in
              if g = f && c = cat then
                close (g ^ "/" ^ Acc.name c) ((1. -. s) *. p) q
              else if p <> q then
                QCheck.Test.fail_reportf "untargeted %s/%s changed" g (Acc.name c))
            Acc.all_categories)
        funcs;
      List.iter
        (fun c ->
          let i = Acc.index c in
          let expected =
            if c = cat then
              plain.Acc.totals.(i) -. (s *. (Acc.bins plain f).(i))
            else plain.Acc.totals.(i)
          in
          if c = cat then close ("total " ^ Acc.name c) expected scaled.Acc.totals.(i)
          else if plain.Acc.totals.(i) <> scaled.Acc.totals.(i) then
            QCheck.Test.fail_reportf "untargeted total %s changed" (Acc.name c))
        Acc.all_categories;
      true)

(* Random experiments over the replay vocabulary: any target kind, any
   factor in [0, 1]. *)
let experiment_gen =
  QCheck.Gen.(
    map
      (fun (kind, fi, ci, pct) ->
        let s = float_of_int pct /. 100. in
        let f = funcs.(fi) and cat = cat_of_index ci in
        let target =
          match kind with
          | 0 -> Acc.Target_func f
          | 1 -> Acc.Target_category cat
          | _ -> Acc.Target_func_category (f, cat)
        in
        { Acc.target; speedup = s })
      (quad (int_range 0 2) (int_range 0 3) (int_range 0 8) (int_range 0 100)))

(* Replay a charge trace through a fused experiment set, mimicking the
   simulator's hot path: per-function bin rows refreshed on every function
   switch, one charge_set per event. *)
let replay_set exps trace =
  let s = Acc.make_set exps in
  let bs = Array.make (Acc.set_size s) [||] in
  let cur = ref (-1) in
  List.iter
    (fun (fi, ci, cyc) ->
      if !cur <> fi then begin
        Acc.set_bins s bs funcs.(fi);
        cur := fi
      end;
      Acc.charge_set s bs (cat_of_index ci) cyc)
    trace;
  Acc.set_accounts s

(* Property (the tentpole's core claim, DESIGN.md §14): an N-experiment
   fused replay is bit-for-bit equal to the N serial single-experiment
   replays — every total and every per-function bin, bitwise. *)
let qcheck_fused_equals_serial =
  QCheck.Test.make ~count:100
    ~name:"fused N-experiment replay == N serial replays, bitwise"
    (QCheck.make
       QCheck.Gen.(
         pair charge_trace_gen (list_size (int_range 1 5) experiment_gen)))
    (fun (trace, exps) ->
      let fused = replay_set exps trace in
      List.iteri
        (fun i e ->
          let serial = replay ~experiment:e trace in
          List.iter
            (fun c ->
              let k = Acc.index c in
              if
                Int64.bits_of_float fused.(i).Acc.totals.(k)
                <> Int64.bits_of_float serial.Acc.totals.(k)
              then
                QCheck.Test.fail_reportf "experiment %d: total %s differs" i
                  (Acc.name c))
            Acc.all_categories;
          Array.iter
            (fun f ->
              let bf = Acc.bins fused.(i) f and bs = Acc.bins serial f in
              Array.iteri
                (fun k v ->
                  if Int64.bits_of_float v <> Int64.bits_of_float bs.(k) then
                    QCheck.Test.fail_reportf "experiment %d: bin %s/%d differs"
                      i f k)
                bf)
            funcs)
        exps;
      true)

(* Property: reading a fused set's accounts ([set_accounts]) is allowed at
   any point mid-replay — what it returns equals the serial replays of the
   prefix charged so far, and charging on afterwards still ends bitwise
   equal to the serial replays of the whole trace.  A read that leaves an
   accumulator inconsistent, or disturbs what later charges add up to,
   fails here. *)
let qcheck_fused_mid_reads =
  let check_equal what i (got : Acc.t) (want : Acc.t) =
    Array.iteri
      (fun k v ->
        if Int64.bits_of_float v <> Int64.bits_of_float want.Acc.totals.(k)
        then
          QCheck.Test.fail_reportf "%s: experiment %d total %d differs" what i
            k)
      got.Acc.totals;
    Array.iter
      (fun f ->
        match Hashtbl.find_opt want.Acc.by_func f with
        | None -> ()
        | Some bw ->
            Array.iteri
              (fun k v ->
                if Int64.bits_of_float v <> Int64.bits_of_float bw.(k) then
                  QCheck.Test.fail_reportf "%s: experiment %d bin %s/%d differs"
                    what i f k)
              (Acc.bins got f))
      funcs
  in
  QCheck.Test.make ~count:100
    ~name:"fused replay read mid-trace == serial replays, bitwise"
    (QCheck.make
       QCheck.Gen.(
         triple charge_trace_gen
           (list_size (int_range 1 5) experiment_gen)
           (list_size (int_range 1 6) (int_range 0 300))))
    (fun (trace, exps, reads) ->
      let s = Acc.make_set exps in
      let bs = Array.make (Acc.set_size s) [||] in
      let cur = ref (-1) in
      let compare_prefix what n =
        let prefix = List.filteri (fun j _ -> j < n) trace in
        Array.iteri
          (fun i got ->
            check_equal what i got
              (replay ~experiment:(List.nth exps i) prefix))
          (Acc.set_accounts s)
      in
      List.iteri
        (fun j (fi, ci, cyc) ->
          if List.mem j reads then
            compare_prefix (Printf.sprintf "read before event %d" j) j;
          if !cur <> fi then begin
            Acc.set_bins s bs funcs.(fi);
            cur := fi
          end;
          Acc.charge_set s bs (cat_of_index ci) cyc)
        trace;
      compare_prefix "end of trace" (List.length trace);
      true)

(* The same identity end-to-end through the machine: one fused gzip
   simulation carrying mixed-kind experiments must reproduce, bitwise,
   each serial run that carries that experiment alone (a set of one), and
   leave its own host accounting bit-identical to a plain run. *)
let test_fused_machine_identity () =
  let w = Epic_workloads.Suite.find_exn "gzip" in
  let config = Epic_core.Experiments.config_for w Epic_core.Config.ILP_CS in
  let compiled =
    Epic_core.Driver.compile ~config ~train:w.Epic_workloads.Workload.train
      w.Epic_workloads.Workload.source
  in
  let input = w.Epic_workloads.Workload.reference in
  let exps =
    [
      { Acc.target = Acc.Target_category Acc.Front_end; speedup = 1.0 };
      { Acc.target = Acc.Target_category Acc.Br_mispredict; speedup = 0.5 };
      { Acc.target = Acc.Target_func "deflate"; speedup = 0.25 };
      { Acc.target = Acc.Target_func_category ("deflate", Acc.Unstalled);
        speedup = 0.75;
      };
    ]
  in
  let code_f, out_f, st_f =
    Epic_core.Driver.run ~experiments:exps compiled input
  in
  let fused = Epic_sim.Machine.fused_accounts st_f in
  Alcotest.(check int) "one fused account per experiment" (List.length exps)
    (Array.length fused);
  List.iteri
    (fun i e ->
      let code_s, out_s, st_s =
        Epic_core.Driver.run ~experiments:[ e ] compiled input
      in
      Alcotest.(check int) "exit code" code_s code_f;
      Alcotest.(check string) "output" out_s out_f;
      let serial = (Epic_sim.Machine.fused_accounts st_s).(0) in
      Array.iteri
        (fun k v ->
          Alcotest.(check int64)
            (Printf.sprintf "experiment %d category %d bitwise" i k)
            (Int64.bits_of_float serial.Acc.totals.(k))
            (Int64.bits_of_float v))
        fused.(i).Acc.totals)
    exps;
  let _, _, st_plain = Epic_core.Driver.run compiled input in
  Array.iteri
    (fun k v ->
      Alcotest.(check int64)
        (Printf.sprintf "host category %d untouched by the fused set" k)
        (Int64.bits_of_float st_plain.Epic_sim.Machine.acc.Acc.totals.(k))
        (Int64.bits_of_float v))
    st_f.Epic_sim.Machine.acc.Acc.totals

(* The fused identity under interval sampling: every experiment of a
   fused sampled gzip run — mixed target kinds plus a no-op — must equal,
   bitwise, the serial sampled run carrying it alone: extrapolated totals,
   every per-function bin and the host's sampled estimate.  A category an
   experiment cannot change must also equal, totals and bins, the plain
   sampled run's own accounting, which no experiment machinery touches.
   The plan is small so the run switches phase many times. *)
let test_fused_sampled_identity () =
  let w = Epic_workloads.Suite.find_exn "gzip" in
  let config = Epic_core.Experiments.config_for w Epic_core.Config.ILP_CS in
  let compiled =
    Epic_core.Driver.compile ~config ~train:w.Epic_workloads.Workload.train
      w.Epic_workloads.Workload.source
  in
  let input = w.Epic_workloads.Workload.reference in
  let sampling =
    { Epic_sim.Sampling.interval = 4096; detail = 256; warmup = 1024 }
  in
  let exps =
    [
      { Acc.target = Acc.Target_category Acc.Front_end; speedup = 1.0 };
      { Acc.target = Acc.Target_category Acc.Br_mispredict; speedup = 0.5 };
      { Acc.target = Acc.Target_func "deflate"; speedup = 0.25 };
      { Acc.target = Acc.Target_func_category ("deflate", Acc.Unstalled);
        speedup = 0.75;
      };
      { Acc.target = Acc.Target_category Acc.Int_load_bubble; speedup = 0.0 };
    ]
  in
  let est st =
    match Epic_sim.Machine.sample_summary st with
    | Some s -> s.Epic_sim.Sampling.s_est_cycles
    | None -> Alcotest.fail "sampled run has no summary"
  in
  let bits = Int64.bits_of_float in
  let code_f, out_f, st_f =
    Epic_core.Driver.run ~sampling ~experiments:exps compiled input
  in
  (match Epic_sim.Machine.sample_summary st_f with
  | Some s ->
      Alcotest.(check bool) "the run left detail several times" true
        (s.Epic_sim.Sampling.s_phases >= 3)
  | None -> Alcotest.fail "sampled run has no summary");
  let fused = Epic_sim.Machine.fused_accounts st_f in
  let _, _, st_plain = Epic_core.Driver.run ~sampling compiled input in
  let plain = st_plain.Epic_sim.Machine.acc in
  Array.iteri
    (fun k v ->
      Alcotest.(check int64)
        (Printf.sprintf "host category %d equals the plain sampled run" k)
        (bits plain.Acc.totals.(k)) (bits v))
    st_f.Epic_sim.Machine.acc.Acc.totals;
  let untouched (e : Acc.experiment) k =
    e.Acc.speedup = 0.
    ||
    match e.Acc.target with
    | Acc.Target_func _ -> false
    | Acc.Target_category c | Acc.Target_func_category (_, c) ->
        Acc.index c <> k
  in
  List.iteri
    (fun i e ->
      for k = 0 to 8 do
        if untouched e k then begin
          Alcotest.(check int64)
            (Printf.sprintf "experiment %d untouched category %d = plain" i k)
            (bits plain.Acc.totals.(k)) (bits fused.(i).Acc.totals.(k));
          List.iter
            (fun f ->
              Alcotest.(check int64)
                (Printf.sprintf "experiment %d untouched bin %s/%d = plain" i
                   f k)
                (bits (Acc.bins plain f).(k))
                (bits (Acc.bins fused.(i) f).(k)))
            (Acc.functions plain)
        end
      done)
    exps;
  List.iteri
    (fun i e ->
      let code_s, out_s, st_s =
        Epic_core.Driver.run ~sampling ~experiments:[ e ] compiled input
      in
      Alcotest.(check int) "exit code" code_s code_f;
      Alcotest.(check string) "output" out_s out_f;
      Alcotest.(check int64)
        (Printf.sprintf "experiment %d: s_est_cycles bitwise" i)
        (bits (est st_s)) (bits (est st_f));
      let serial = (Epic_sim.Machine.fused_accounts st_s).(0) in
      Array.iteri
        (fun k v ->
          Alcotest.(check int64)
            (Printf.sprintf "experiment %d category %d bitwise" i k)
            (bits serial.Acc.totals.(k)) (bits v))
        fused.(i).Acc.totals;
      Alcotest.(check (list string))
        (Printf.sprintf "experiment %d: same functions binned" i)
        (Acc.functions serial) (Acc.functions fused.(i));
      List.iter
        (fun f ->
          Array.iteri
            (fun k v ->
              Alcotest.(check int64)
                (Printf.sprintf "experiment %d bin %s/%d bitwise" i f k)
                (bits v) (bits (Acc.bins fused.(i) f).(k)))
            (Acc.bins serial f))
        (Acc.functions serial))
    exps

(* Checkpoint-prefix reuse under experiments: resuming a mid-run snapshot
   with a fused set applies each experiment to the checkpointed past
   (Accounting.apply_experiment_to_past) — totals must land within an ulp
   (1e-9 relative) of the straight-through fused run, and exactly when
   the target never charged before the capture point. *)
let test_fused_checkpoint_resume () =
  let w = Epic_workloads.Suite.find_exn "gzip" in
  let config = Epic_core.Experiments.config_for w Epic_core.Config.ILP_CS in
  let compiled =
    Epic_core.Driver.compile ~config ~train:w.Epic_workloads.Workload.train
      w.Epic_workloads.Workload.source
  in
  let input = w.Epic_workloads.Workload.reference in
  let _, _, st_plain = Epic_core.Driver.run compiled input in
  let at = st_plain.Epic_sim.Machine.c.Epic_sim.Machine.groups / 2 in
  Alcotest.(check bool) "program long enough to split" true (at > 0);
  let _, _, st_ck = Epic_core.Driver.run ~checkpoint_at:at compiled input in
  let ck =
    match st_ck.Epic_sim.Machine.ck_saved with
    | Some ck -> ck
    | None -> Alcotest.fail "no checkpoint captured"
  in
  let exps =
    [
      { Acc.target = Acc.Target_category Acc.Br_mispredict; speedup = 0.5 };
      { Acc.target = Acc.Target_func "deflate"; speedup = 1.0 };
    ]
  in
  let code_f, out_f, st_full =
    Epic_core.Driver.run ~experiments:exps compiled input
  in
  let code_r, out_r, st_res = Epic_core.Driver.resume ~experiments:exps compiled ck in
  Alcotest.(check int) "exit code" code_f code_r;
  Alcotest.(check string) "output" out_f out_r;
  let full = Epic_sim.Machine.fused_accounts st_full in
  let res = Epic_sim.Machine.fused_accounts st_res in
  let close_a msg a b =
    let tol = 1e-9 *. Float.max 1.0 (Float.max (abs_float a) (abs_float b)) in
    Alcotest.(check bool)
      (Printf.sprintf "%s (%.17g vs %.17g)" msg a b)
      true
      (abs_float (a -. b) <= tol)
  in
  List.iteri
    (fun i _ ->
      Array.iteri
        (fun k v ->
          close_a
            (Printf.sprintf "experiment %d category %d within ulp" i k)
            full.(i).Acc.totals.(k) v)
        res.(i).Acc.totals)
    exps

(* A no-op experiment (speedup 0) must leave the whole exported run
   document byte-identical to a run without any experiment — the
   acceptance guarantee that an idle hook costs nothing observable — and
   its own accumulator must equal the plain run's, bitwise. *)
let test_noop_experiment_identity () =
  let w = Epic_workloads.Suite.find_exn "gzip" in
  let config = Epic_core.Experiments.config_for w Epic_core.Config.ILP_CS in
  let compiled =
    Epic_core.Driver.compile ~config ~train:w.Epic_workloads.Workload.train
      w.Epic_workloads.Workload.source
  in
  let doc ?experiments () =
    let code, out, st =
      Epic_core.Driver.run ?experiments compiled
        w.Epic_workloads.Workload.reference
    in
    let run =
      Epic_core.Metrics.of_machine ~workload:"gzip" compiled st
        ~output_matches:(code = 0 && String.length out >= 0)
    in
    ( Epic_obs.Json.to_string ~pretty:true
        (Epic_core.Export.normalize_time (Epic_core.Export.run_to_json run)),
      st )
  in
  let plain, st_plain = doc () in
  let noop, st_noop =
    doc
      ~experiments:
        [ { Acc.target = Acc.Target_category Acc.Front_end; speedup = 0.0 } ]
      ()
  in
  Alcotest.(check string) "no-op experiment: byte-identical export" plain noop;
  Array.iteri
    (fun k v ->
      Alcotest.(check int64)
        (Printf.sprintf "no-op accumulator category %d bitwise" k)
        (Int64.bits_of_float st_plain.Epic_sim.Machine.acc.Acc.totals.(k))
        (Int64.bits_of_float v))
    (Epic_sim.Machine.fused_accounts st_noop).(0).Acc.totals

let test_experiment_validation () =
  let t = Acc.create () in
  Alcotest.check_raises "speedup > 1 rejected"
    (Invalid_argument "Accounting.set_experiment: speedup must be in [0, 1]")
    (fun () ->
      Acc.set_experiment t
        (Some { Acc.target = Acc.Target_func "f"; speedup = 1.5 }));
  Acc.set_experiment t
    (Some { Acc.target = Acc.Target_func "f"; speedup = 0.0 });
  Alcotest.(check bool) "no-op experiment is inactive" false
    (Acc.experiment_active t);
  Acc.set_experiment t
    (Some { Acc.target = Acc.Target_func "f"; speedup = 0.5 });
  Alcotest.(check bool) "half-speedup experiment is active" true
    (Acc.experiment_active t)

let test_parse_and_plan () =
  (match Causal.parse_target "front-end" with
  | Causal.Target_category Acc.Front_end -> ()
  | _ -> Alcotest.fail "front-end should parse as a category");
  (match Causal.parse_target "deflate" with
  | Causal.Target_func "deflate" -> ()
  | _ -> Alcotest.fail "deflate should parse as a function");
  Alcotest.(check string) "round-trip" "br-mispredict"
    (Causal.target_name (Causal.parse_target "br-mispredict"));
  (match Causal.parse_target "deflate:front-end" with
  | Causal.Target_func_category ("deflate", Acc.Front_end) -> ()
  | _ -> Alcotest.fail "deflate:front-end should parse as a (func, category) pair");
  Alcotest.(check string) "func:category round-trip" "deflate:front-end"
    (Causal.target_name (Causal.parse_target "deflate:front-end"));
  (match Causal.parse_target "deflate:nonsense" with
  | Causal.Target_func "deflate:nonsense" -> ()
  | _ -> Alcotest.fail "an unknown category suffix falls back to a function name");
  let categories = Array.make 9 0. in
  categories.(Acc.index Acc.Unstalled) <- 1000.;
  categories.(Acc.index Acc.Front_end) <- 50.;
  categories.(Acc.index Acc.Rse) <- 10.;
  let targets =
    Causal.plan ~top_funcs:2
      ~prof_by_func:[ ("hot", 90); ("warm", 9); ("cold", 1) ]
      ~categories ()
  in
  Alcotest.(check (list string))
    "top functions then nonzero categories, unstalled excluded"
    [ "hot"; "warm"; "front-end"; "rse" ]
    (List.map Causal.target_name targets);
  (* split planner: per-(function, category) targets for the top
     [split_funcs] functions, one per nonzero non-unstalled bin *)
  let hot_bins = Array.make 9 0. in
  hot_bins.(Acc.index Acc.Unstalled) <- 800.;
  hot_bins.(Acc.index Acc.Front_end) <- 40.;
  let warm_bins = Array.make 9 0. in
  warm_bins.(Acc.index Acc.Rse) <- 10.;
  let split =
    Causal.plan ~split_funcs:2
      ~func_bins:[ ("hot", hot_bins); ("warm", warm_bins) ]
      ~top_funcs:2
      ~prof_by_func:[ ("hot", 90); ("warm", 9); ("cold", 1) ]
      ~categories ()
  in
  Alcotest.(check (list string))
    "split plan appends per-(func, category) targets, unstalled excluded"
    [ "hot"; "warm"; "front-end"; "rse"; "hot:front-end"; "warm:rse" ]
    (List.map Causal.target_name split)

(* The full-matrix invariants, one bounded causal run on gzip + twolf:
   - per target, program speedup is linear in the factor (the accounting
     model scales charges exactly), so the slope is trustworthy;
   - the factor-1.0 front-end and br-mispredict deltas — what the sweep's
     perfect-icache / perfect-predictor cells save — equal the baseline's
     category totals exactly (every charge is a whole number of cycles,
     so the float sums are exact);
   - so the causal ranking of the two categories is the ranking of the
     baseline's own totals, on every workload. *)
let test_factor_one_category_deltas () =
  let targets =
    [
      Causal.Target_category Acc.Front_end;
      Causal.Target_category Acc.Br_mispredict;
    ]
  in
  let r =
    Causal.run ~targets ~factors:[ 0.25; 0.5; 1.0 ]
      ~workloads:[ "gzip"; "twolf" ] (Epic_core.Matrix.direct ~jobs:2)
  in
  Alcotest.(check (list pass)) "no output mismatches" []
    (Causal.mismatches r);
  List.iter
    (fun wr ->
      Alcotest.(check int)
        (wr.Causal.c_workload ^ ": both targets present")
        2
        (List.length wr.Causal.c_curves);
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: linear in the factor (%.2e)"
               wr.Causal.c_workload
               (Causal.target_name k.Causal.k_target)
               k.Causal.k_linearity)
            true
            (k.Causal.k_linearity < 1e-6);
          (* slope = local share: scaling a category's charges by (1-s)
             removes exactly s * share of the total *)
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: slope matches local share"
               wr.Causal.c_workload
               (Causal.target_name k.Causal.k_target))
            true
            (abs_float (k.Causal.k_slope -. k.Causal.k_local_share) < 1e-6))
        wr.Causal.c_curves;
      let delta cat =
        match Causal.curve_of wr (Causal.Target_category cat) with
        | Some k -> k.Causal.k_delta_full
        | None -> Alcotest.failf "%s: no %s curve" wr.Causal.c_workload (Acc.name cat)
      in
      let total cat = wr.Causal.c_base_categories.(Acc.index cat) in
      List.iter
        (fun cat ->
          Alcotest.(check int64)
            (Printf.sprintf "%s: factor-1.0 %s delta == baseline total (%.0f)"
               wr.Causal.c_workload (Acc.name cat) (total cat))
            (Int64.bits_of_float (total cat))
            (Int64.bits_of_float (delta cat)))
        [ Acc.Front_end; Acc.Br_mispredict ];
      Alcotest.(check int)
        (wr.Causal.c_workload ^ ": causal ranking == baseline-total ranking")
        (compare (total Acc.Front_end) (total Acc.Br_mispredict))
        (compare (delta Acc.Front_end) (delta Acc.Br_mispredict)))
    r.Causal.r_reports

(* Per-(function, category) targets through the full pipeline: a bounded
   causal run with split targets, then the factor-1.0 local-exactness
   cross-check — the measured Δcycles at factor 1.0 must equal the
   baseline cycles charged to each target, exactly, for function,
   category AND (function, category) target kinds alike. *)
let test_func_category_local_exactness () =
  let r =
    Causal.run ~split_funcs:2 ~top_funcs:1 ~factors:[ 0.5; 1.0 ]
      ~workloads:[ "gzip" ] (Epic_core.Matrix.direct ~jobs:2)
  in
  Alcotest.(check (list pass)) "no output mismatches" [] (Causal.mismatches r);
  let rows = Causal.check_local_exactness r in
  let fc_rows =
    List.filter
      (fun row ->
        match row.Causal.lk_target with
        | Causal.Target_func_category _ -> true
        | _ -> false)
      rows
  in
  Alcotest.(check bool)
    "at least one (function, category) target was planned and checked" true
    (fc_rows <> []);
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: factor-1.0 delta == local charges (%.0f vs %.0f)"
           row.Causal.lk_workload
           (Causal.target_name row.Causal.lk_target)
           row.Causal.lk_causal row.Causal.lk_local)
        true row.Causal.lk_ok)
    rows

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_category_scaling;
    QCheck_alcotest.to_alcotest qcheck_func_scaling;
    QCheck_alcotest.to_alcotest qcheck_func_category_scaling;
    QCheck_alcotest.to_alcotest qcheck_fused_equals_serial;
    QCheck_alcotest.to_alcotest qcheck_fused_mid_reads;
    Alcotest.test_case "fused machine run == serial runs, bitwise" `Slow
      test_fused_machine_identity;
    Alcotest.test_case "fused sampled run == serial sampled runs, bitwise"
      `Slow test_fused_sampled_identity;
    Alcotest.test_case "checkpoint resume under experiments" `Slow
      test_fused_checkpoint_resume;
    Alcotest.test_case "no-op experiment is byte-invisible" `Slow
      test_noop_experiment_identity;
    Alcotest.test_case "experiment validation and activity" `Quick
      test_experiment_validation;
    Alcotest.test_case "target parsing and the planner" `Quick
      test_parse_and_plan;
    Alcotest.test_case "factor-1.0 category deltas equal baseline totals"
      `Slow test_factor_one_category_deltas;
    Alcotest.test_case "(function, category) targets are locally exact" `Slow
      test_func_category_local_exactness;
  ]
