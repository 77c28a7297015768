(* Sampled simulation and checkpoint/restore.

   Two properties anchor the subsystem (ISSUE 8 acceptance):

   - checkpoint save -> restore is *bit-identical* to uninterrupted
     simulation — exit code, output, total cycles, every accounting
     category and every retired-op counter — proven on the gzip workload
     and by qcheck over random programs;
   - sampled extrapolation error on the full 12-workload suite stays
     within the CI-enforced budget (geomean total error <= 2%, every
     per-category error <= 5%), with architecturally exact output. *)

module Driver = Epic_core.Driver
module Machine = Epic_sim.Machine
module Accounting = Epic_sim.Accounting
module Workload = Epic_workloads.Workload

let exact = Alcotest.float 0.

(* Full run vs (checkpoint_at -> resume): every observable equal, bit for
   bit.  Returns false only on divergence; a program too short to reach
   [at] groups has nothing to restore and passes vacuously. *)
let roundtrip_identical ?fuel ~at compiled input =
  let code0, out0, st0 = Driver.run ?fuel compiled input in
  let _, _, stc = Driver.run ?fuel ~checkpoint_at:at compiled input in
  match Machine.checkpoint stc with
  | None -> true
  | Some ck ->
      let code1, out1, st1 = Driver.resume compiled ck in
      code0 = code1 && out0 = out1
      && Accounting.total st0.Machine.acc = Accounting.total st1.Machine.acc
      && st0.Machine.acc.Accounting.totals = st1.Machine.acc.Accounting.totals
      && st0.Machine.c.Machine.useful_ops = st1.Machine.c.Machine.useful_ops
      && st0.Machine.c.Machine.squashed_ops = st1.Machine.c.Machine.squashed_ops
      && st0.Machine.c.Machine.nop_ops = st1.Machine.c.Machine.nop_ops
      && st0.Machine.c.Machine.branches = st1.Machine.c.Machine.branches
      && st0.Machine.c.Machine.groups = st1.Machine.c.Machine.groups
      && st0.Machine.l1d.Epic_sim.Cache.misses
         = st1.Machine.l1d.Epic_sim.Cache.misses
      && st0.Machine.dtlb.Epic_sim.Tlb.misses
         = st1.Machine.dtlb.Epic_sim.Tlb.misses
      && st0.Machine.rse.Epic_sim.Rse.spills = st1.Machine.rse.Epic_sim.Rse.spills

let gzip () = Option.get (Epic_workloads.Suite.find "gzip")

let compile_workload w =
  let config = Epic_core.Experiments.config_for w Epic_core.Config.ILP_CS in
  Driver.compile ~config ~train:w.Workload.train w.Workload.source

(* gzip, checkpointed mid-run: the restore must replay to the same bits. *)
let test_roundtrip_gzip () =
  let w = gzip () in
  let compiled = compile_workload w in
  List.iter
    (fun at ->
      Alcotest.(check bool)
        (Printf.sprintf "restore at %d groups bit-identical" at)
        true
        (roundtrip_identical ~at compiled w.Workload.reference))
    [ 1000; 65536 ]

(* The checkpoint itself records its capture position. *)
let test_checkpoint_position () =
  let w = gzip () in
  let compiled = compile_workload w in
  let _, _, stc = Driver.run ~checkpoint_at:1000 compiled w.Workload.reference in
  match Machine.checkpoint stc with
  | None -> Alcotest.fail "gzip retires far more than 1000 groups"
  | Some ck ->
      Alcotest.(check int) "captured at the armed group" 1000
        (Machine.checkpoint_groups ck);
      Alcotest.(check bool) "capture cycle is positive" true
        (Machine.checkpoint_cycle ck > 0)

(* qcheck: the round-trip property over random terminating programs.
   [Driver.compile]'s training run has no fuel guard (real workloads
   terminate), so skip generated programs whose reference run isn't
   quickly bounded — same discipline as test_serve's qcheck. *)
let roundtrip_random =
  QCheck.Test.make ~count:25 ~name:"checkpoint restore bit-identical"
    (QCheck.make ~print:(fun s -> s) Epic_core.Random_program.Gen.program)
    (fun src ->
      match
        Epic_core.Random_program.reference ~fuel:200_000 src [| 3L; 7L |]
      with
      | exception _ -> true
      | _ ->
          let config = Epic_core.Config.make Epic_core.Config.ILP_CS in
          let compiled = Driver.compile ~config ~train:[| 3L; 7L |] src in
          roundtrip_identical ~fuel:2_000_000 ~at:64 compiled [| 3L; 7L |])

(* Sampling and checkpointing drive the same phase machinery in
   incompatible directions; the combination must be rejected loudly. *)
let test_sampling_checkpoint_exclusive () =
  let w = gzip () in
  let compiled = compile_workload w in
  Alcotest.check_raises "sampling + checkpoint_at rejected"
    (Invalid_argument "Machine.run: sampling and checkpoint_at are exclusive")
    (fun () ->
      ignore
        (Driver.run ~sampling:Epic_sim.Sampling.default_plan ~checkpoint_at:1000
           compiled w.Workload.reference))

(* The accuracy harness over the full 12-workload suite: the same gate CI
   enforces on a 3-workload subset, here on everything. *)
let test_accuracy_budget () =
  let rep =
    Epic_sample.Sample.run (Epic_serve.Session.backend (Epic_serve.Session.create ()))
  in
  Alcotest.(check int) "all 12 workloads measured" 12
    (List.length rep.Epic_sample.Sample.rows);
  List.iter
    (fun (r : Epic_sample.Sample.row) ->
      Alcotest.(check bool)
        (r.Epic_sample.Sample.r_workload ^ ": sampled output exact")
        true r.Epic_sample.Sample.r_output_ok)
    rep.Epic_sample.Sample.rows;
  Alcotest.(check bool)
    (Printf.sprintf "geomean error %.3f%% within %.0f%% budget"
       (rep.Epic_sample.Sample.geomean_err *. 100.)
       (Epic_sample.Sample.total_budget *. 100.))
    true
    (rep.Epic_sample.Sample.geomean_err <= Epic_sample.Sample.total_budget);
  Alcotest.(check bool)
    (Printf.sprintf "worst category error %.3f%% within %.0f%% budget"
       (rep.Epic_sample.Sample.worst_cat_err *. 100.)
       (Epic_sample.Sample.cat_budget *. 100.))
    true
    (rep.Epic_sample.Sample.worst_cat_err <= Epic_sample.Sample.cat_budget);
  Alcotest.(check bool) "report verdict is PASS" true
    rep.Epic_sample.Sample.pass

(* A run that never leaves the detail phase is not an estimate at all: the
   scale must be exactly 1 and the accounting bit-identical to unsampled. *)
let test_short_run_exact () =
  let w = gzip () in
  let compiled = compile_workload w in
  let _, _, st0 = Driver.run compiled w.Workload.reference in
  let huge =
    { Epic_sim.Sampling.interval = 200_000_000; detail = 100_000_000; warmup = 0 }
  in
  let _, _, st1 = Driver.run ~sampling:huge compiled w.Workload.reference in
  Alcotest.check exact "totals identical"
    (Accounting.total st0.Machine.acc)
    (Accounting.total st1.Machine.acc);
  match Machine.sample_summary st1 with
  | None -> Alcotest.fail "sampled run must carry a summary"
  | Some su ->
      Alcotest.check exact "scale exactly 1" 1.0 su.Epic_sim.Sampling.s_scale

let suite =
  [
    Alcotest.test_case "checkpoint round-trip: gzip" `Slow test_roundtrip_gzip;
    Alcotest.test_case "checkpoint capture position" `Quick
      test_checkpoint_position;
    QCheck_alcotest.to_alcotest roundtrip_random;
    Alcotest.test_case "sampling x checkpoint exclusive" `Quick
      test_sampling_checkpoint_exclusive;
    Alcotest.test_case "sampled accuracy budget: 12 workloads" `Slow
      test_accuracy_budget;
    Alcotest.test_case "all-detail sampled run is exact" `Slow
      test_short_run_exact;
  ]
