(* Domain-pool tests: every job runs exactly once, results are
   index-ordered regardless of completion order, exceptions propagate with
   the original payload, jobs=1 stays in the calling domain — and the
   tentpole property, that the parallel suite runner is byte-identical to
   the sequential one (modulo wall-clock, which the export normalizes). *)

module Pool = Epic_core.Pool
module Experiments = Epic_core.Experiments
module Export = Epic_core.Export

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

(* Spin long enough to let other workers overtake; returns a value derived
   from the loop so it cannot be optimized away. *)
let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc + i) land 0xffff
  done;
  !acc

let test_map_basic () =
  let items = Array.init 100 Fun.id in
  let out = Pool.map ~jobs:4 (fun x -> x * x) items in
  check (Alcotest.array ci) "squares in order" (Array.map (fun x -> x * x) items) out;
  check (Alcotest.array ci) "empty input" [||] (Pool.map ~jobs:4 (fun x -> x) [||])

let test_every_job_once () =
  let n = 64 in
  let started = Array.init n (fun _ -> Atomic.make 0) in
  ignore
    (Pool.map ~jobs:8
       (fun i ->
         Atomic.incr started.(i);
         i)
       (Array.init n Fun.id));
  Array.iteri
    (fun i a -> check ci (Printf.sprintf "job %d ran exactly once" i) 1 (Atomic.get a))
    started

let test_index_order_under_skew () =
  (* early indices do the most work, so later indices finish first; the
     result array must still be index-ordered *)
  let n = 32 in
  let out =
    Pool.map ~jobs:4
      (fun i -> ignore (spin ((n - i) * 20000)); i)
      (Array.init n Fun.id)
  in
  check (Alcotest.array ci) "index order despite skewed completion"
    (Array.init n Fun.id) out

exception Boom of int

let test_exception_propagates () =
  let raised =
    try
      ignore
        (Pool.map ~jobs:4
           (fun i -> if i = 13 then raise (Boom i) else i)
           (Array.init 48 Fun.id));
      None
    with Boom i -> Some i
  in
  check (Alcotest.option ci) "original exception propagates" (Some 13) raised;
  (* smallest raising index wins when several jobs raise *)
  let first =
    try
      ignore
        (Pool.map ~jobs:2
           (fun i ->
             ignore (spin ((i + 1) * 1000));
             raise (Boom i))
           (Array.init 16 Fun.id));
      None
    with Boom i -> Some i
  in
  match first with
  | Some i -> check cb "a raising job's own exception, low index" true (i < 16)
  | None -> Alcotest.fail "expected Boom"

let test_jobs1_no_domain () =
  let self = Domain.self () in
  let seen =
    Pool.map ~jobs:1 (fun _ -> Domain.self ()) (Array.init 8 Fun.id)
  in
  Array.iter
    (fun d -> check cb "jobs=1 runs in the calling domain" true (d = self))
    seen;
  check cb "jobs=0 rejected" true
    (try
       ignore (Pool.map ~jobs:0 Fun.id [| 1 |]);
       false
     with Invalid_argument _ -> true)

let qcheck_pool_matches_sequential =
  QCheck.Test.make ~count:50 ~name:"pool.map == Array.map (any jobs, any size)"
    QCheck.(pair (int_range 1 8) (list small_int))
    (fun (jobs, xs) ->
      let items = Array.of_list xs in
      Pool.map ~jobs (fun x -> (x * 31) lxor 5) items
      = Array.map (fun x -> (x * 31) lxor 5) items)

(* The tentpole guarantee: a parallel suite run produces a byte-identical
   JSON document to the sequential one (wall-clock normalized).  Two cheap
   workloads keep this test affordable; CI runs a larger subset through
   bench/main.exe -j. *)
let test_suite_determinism () =
  let workloads =
    [ Epic_workloads.Suite.find_exn "gap"; Epic_workloads.Suite.find_exn "twolf" ]
  in
  let export s =
    Epic_obs.Json.to_string (Export.normalize_time (Export.suite_to_json s))
  in
  let seq = Experiments.run_suite ~workloads (Epic_core.Matrix.direct ~jobs:1) in
  let par = Experiments.run_suite ~workloads (Epic_core.Matrix.direct ~jobs:4) in
  check ci "same number of runs" (List.length seq.Experiments.runs)
    (List.length par.Experiments.runs);
  List.iter2
    (fun (w1, l1, _) (w2, l2, _) ->
      check Alcotest.string "runs in the same order" w1 w2;
      check cb "levels in the same order" true (l1 = l2))
    seq.Experiments.runs par.Experiments.runs;
  check Alcotest.string "suite JSON byte-identical at -j 4" (export seq) (export par);
  check ci "no output mismatches" 0 (List.length (Experiments.mismatches seq))

(* The sweep and the causal matrix run on the same planner: a small
   matrix of each on gzip gives the same normalized JSON at width 1 and 2.
   The sweep merges a suppression variant into the itanium2 simulation
   beside a recompiled geometry variant; the causal grid is read off the
   single baseline simulation. *)
let test_sweep_causal_determinism () =
  let norm j = Epic_obs.Json.to_string (Export.normalize_time j) in
  let sweep jobs =
    let variants =
      List.filter_map Epic_sweep.Sweep.find_variant [ "perfect-icache"; "half-l2" ]
    in
    norm
      (Epic_sweep.Sweep.to_json
         (Epic_sweep.Sweep.run ~variants ~workloads:[ "gzip" ]
            (Epic_core.Matrix.direct ~jobs)))
  in
  let causal jobs =
    norm
      (Epic_causal.Causal.to_json
         (Epic_causal.Causal.run ~top_funcs:1 ~factors:[ 0.5; 1.0 ]
            ~workloads:[ "gzip" ] (Epic_core.Matrix.direct ~jobs)))
  in
  check Alcotest.string "sweep JSON byte-identical at -j 2" (sweep 1) (sweep 2);
  check Alcotest.string "causal JSON byte-identical at -j 2" (causal 1) (causal 2)

let suite =
  [
    Alcotest.test_case "pool: map basics" `Quick test_map_basic;
    Alcotest.test_case "pool: every job exactly once" `Quick test_every_job_once;
    Alcotest.test_case "pool: index order under skew" `Quick test_index_order_under_skew;
    Alcotest.test_case "pool: exception propagation" `Quick test_exception_propagates;
    Alcotest.test_case "pool: jobs=1 stays in caller" `Quick test_jobs1_no_domain;
    QCheck_alcotest.to_alcotest qcheck_pool_matches_sequential;
    Alcotest.test_case "suite: -j 4 byte-identical to -j 1" `Slow test_suite_determinism;
    Alcotest.test_case "sweep and causal: -j 2 byte-identical to -j 1" `Slow
      test_sweep_causal_determinism;
  ]
