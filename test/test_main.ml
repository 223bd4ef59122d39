let () =
  Alcotest.run "pep"
    [
      ("cfg", Test_cfg.suite);
      ("bytecode", Test_bytecode.suite);
      ("interp", Test_interp.suite);
      ("profile", Test_profile.suite);
      ("runtime", Test_runtime.suite);
      ("numbering", Test_numbering.suite);
      ("dag-invariants", Test_dag_invariants.suite);
      ("blpp", Test_blpp.suite);
      ("spec", Test_spec.suite);
      ("sampling", Test_sampling.suite);
      ("pep", Test_pep.suite);
      ("vm", Test_vm.suite);
      ("engine", Test_engine.suite);
      ("inline", Test_inline.suite);
      ("estimators", Test_estimators.suite);
      ("unroll", Test_unroll.suite);
      ("hardening", Test_hardening.suite);
      ("workloads", Test_workloads.suite);
      ("experiments", Test_experiments.suite);
      ("check", Test_check.suite);
      ("telemetry", Test_telemetry.suite);
      ("pool", Test_pool.suite);
      ("fleet", Test_fleet.suite);
      ("wgen", Test_wgen.suite);
      ("faults", Test_faults.suite);
      ("dataflow", Test_dataflow.suite);
      ("transval", Test_transval.suite);
    ]
