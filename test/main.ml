(* Full test suite: `dune runtest`. *)
let () =
  Alcotest.run "epic"
    [
      ("ir", Test_ir.suite);
      ("frontend", Test_frontend.suite);
      ("analysis", Test_analysis.suite);
      ("opt", Test_opt.suite);
      ("passman", Test_passman.suite);
      ("pool", Test_pool.suite);
      ("ilp", Test_ilp.suite);
      ("sched", Test_sched.suite);
      ("sim", Test_sim.suite);
      ("hotpath", Test_hotpath.suite);
      ("integration", Test_integration.suite);
      ("golden", Test_golden.suite);
      ("obs", Test_obs.suite);
      ("paper-shapes", Test_workload_shapes.suite);
      ("sweep", Test_sweep.suite);
      ("causal", Test_causal.suite);
      ("serve", Test_serve.suite);
      ("sample", Test_sample.suite);
    ]
