(* The causal-profiling subsystem: an experiment must scale exactly what
   it claims to (and nothing else), reading it off a plain run must equal
   scaling every charge as it was made, a no-op experiment must be
   byte-invisible, and every factor-1.0 delta must equal the cycles the
   baseline charged to its target. *)

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

(* The scaled-charge oracle: charge one event into [t], scaling it by
   [1 - speedup] as it is made when the experiment's target admits it —
   what a simulation carrying the experiment through every charge would
   add up.  Every function's bins exist from the start. *)
let charger ?experiment (t : Acc.t) =
  let bins = Array.map (Acc.bins t) funcs in
  let keep, admits =
    match experiment with
    | None -> (1.0, fun _ _ -> false)
    | Some { Acc.target; speedup } -> (
        ( 1.0 -. speedup,
          match target with
          | Acc.Target_category c -> fun _ k -> k = Acc.index c
          | Acc.Target_func f -> fun fi _ -> funcs.(fi) = f
          | Acc.Target_func_category (f, c) ->
              fun fi k -> funcs.(fi) = f && k = Acc.index c ))
  in
  fun (fi, ci, cyc) ->
    if cyc > 0 then begin
      let c = float_of_int cyc in
      let c = if admits fi ci then c *. keep else c in
      t.Acc.totals.(ci) <- t.Acc.totals.(ci) +. c;
      bins.(fi).(ci) <- bins.(fi).(ci) +. c
    end

let replay ?experiment trace =
  let t = Acc.create () in
  List.iter (charger ?experiment t) trace;
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

(* Random experiments whose factors are the causal matrix's: dyadic ones,
   where scaling a whole number of cycles is exact, and 0.10, where it is
   not. *)
let experiment_gen =
  QCheck.Gen.(
    map
      (fun (kind, fi, ci, speedup) ->
        let f = funcs.(fi) and cat = cat_of_index ci in
        let target =
          match kind with
          | 0 -> Acc.Target_func f
          | 1 -> Acc.Target_category cat
          | _ -> Acc.Target_func_category (f, cat)
        in
        { Acc.target; speedup })
      (quad (int_range 0 2) (int_range 0 3) (int_range 0 8)
         (oneofl [ 0.0; 0.10; 0.25; 0.5; 0.75; 1.0 ])))

(* [got] against [want], totals and every function's bins: bitwise for a
   dyadic factor, within 1e-9 relative for 0.10 (the read rounds once
   where the oracle rounds once per charge). *)
let same_accounts what (e : Acc.experiment) (got : Acc.t) (want : Acc.t) =
  let agree where a b =
    if e.Acc.speedup = 0.10 then close (what ^ ": " ^ where) a b
    else if Int64.bits_of_float a <> Int64.bits_of_float b then
      QCheck.Test.fail_reportf "%s: %s differs: %h vs %h" what where a b
  in
  Array.iteri
    (fun k v -> agree (Printf.sprintf "total %d" k) v want.Acc.totals.(k))
    got.Acc.totals;
  Array.iter
    (fun f ->
      Array.iteri
        (fun k v -> agree (Printf.sprintf "bin %s/%d" f k) v (Acc.bins want f).(k))
        (Acc.bins got f))
    funcs

(* Property: experiments read off ONE plain replay, at random points
   mid-trace, equal the scaled-charge replays of the prefix charged so
   far; charging goes on afterwards undisturbed, and the reads at the end
   equal the scaled replays of the whole trace. *)
let qcheck_read_mid_trace =
  QCheck.Test.make ~count:100
    ~name:"reads mid-trace == scaled-charge replays"
    (QCheck.make
       QCheck.Gen.(
         triple charge_trace_gen
           (list_size (int_range 1 5) experiment_gen)
           (list_size (int_range 1 6) (int_range 0 300))))
    (fun (trace, exps, reads) ->
      let plain = Acc.create () in
      let charge = charger plain in
      let compare_prefix what n =
        let prefix = List.filteri (fun j _ -> j < n) trace in
        List.iteri
          (fun i e ->
            same_accounts (Printf.sprintf "%s, experiment %d" what i) e
              (Acc.apply plain e) (replay ~experiment:e prefix))
          exps
      in
      List.iteri
        (fun j ev ->
          if List.mem j reads then
            compare_prefix (Printf.sprintf "read before event %d" j) j;
          charge ev)
        trace;
      compare_prefix "end of trace" (List.length trace);
      true)

(* A charge trace driven the way the machine drives a sampled run: one
   event per issue group, the phase switch at a group's start, nothing
   charged in a warm phase, then [Sampling.finalize]. *)
let sampled_replay ?experiment (plan : Sampling.plan) trace =
  let t = Acc.create () in
  let charge = charger ?experiment t in
  let sa = Sampling.make plan in
  List.iter
    (fun ev ->
      if sa.Sampling.left <= 0 then begin
        if sa.Sampling.in_detail then begin
          Sampling.record_phase sa t ~len:sa.Sampling.phase_len;
          sa.Sampling.in_detail <- false;
          sa.Sampling.phase_len <- plan.Sampling.interval - plan.Sampling.detail
        end
        else begin
          sa.Sampling.in_detail <- true;
          Sampling.resnap sa t.Acc.totals;
          sa.Sampling.phase_len <- plan.Sampling.detail
        end;
        sa.Sampling.left <- sa.Sampling.phase_len
      end;
      sa.Sampling.left <- sa.Sampling.left - 1;
      if sa.Sampling.in_detail then charge ev)
    trace;
  ignore (Sampling.finalize sa t ~total_groups:(List.length trace));
  (t, sa)

(* Property: the same reads under interval sampling.  Random phase plans
   over random traces; each experiment read off the one plain sampled
   replay equals the scaled-charge sampled replay, extrapolation and all:
   totals and every function's bins. *)
let qcheck_sampled_read =
  let plan_gen =
    QCheck.Gen.(
      map
        (fun (interval, d, warmup) ->
          { Sampling.interval; detail = 1 + (d mod (interval - 1)); warmup })
        (triple (int_range 2 24) (int_range 0 100) (int_range 0 8)))
  in
  QCheck.Test.make ~count:100
    ~name:"sampled reads == scaled-charge sampled replays"
    (QCheck.make
       QCheck.Gen.(
         triple charge_trace_gen plan_gen
           (list_size (int_range 1 5) experiment_gen)))
    (fun (trace, plan, exps) ->
      let plain, sa = sampled_replay plan trace in
      List.iteri
        (fun i e ->
          let want, _ = sampled_replay ~experiment:e plan trace in
          same_accounts (Printf.sprintf "experiment %d" i) e
            (Sampling.read sa plain e) want)
        exps;
      true)

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

(* A speedup outside [0, 1] is refused when read; a speedup-0.0 read is
   the plain accounting, bit for bit, and leaves it untouched. *)
let test_experiment_validation () =
  let t = Acc.create () in
  Acc.charge t "f" Acc.Front_end 7;
  Alcotest.check_raises "speedup > 1 rejected"
    (Invalid_argument "Accounting.apply: speedup must be in [0, 1]")
    (fun () ->
      ignore (Acc.apply t { Acc.target = Acc.Target_func "f"; speedup = 1.5 }));
  let noop = Acc.apply t { Acc.target = Acc.Target_func "f"; speedup = 0.0 } in
  Alcotest.(check (array (float 0.))) "no-op read is the plain totals"
    t.Acc.totals noop.Acc.totals;
  let half = Acc.apply t { Acc.target = Acc.Target_func "f"; speedup = 0.5 } in
  Alcotest.(check (float 0.)) "half-speedup read halves the target" 3.5
    (Acc.get half Acc.Front_end);
  Alcotest.(check (float 0.)) "the plain accounting is untouched" 7.
    (Acc.get t Acc.Front_end)

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
    QCheck_alcotest.to_alcotest qcheck_read_mid_trace;
    QCheck_alcotest.to_alcotest qcheck_sampled_read;
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
