let () =
  Alcotest.run "gpu_rmt"
    [
      ("ir", Test_ir.suite);
      ("ecc", Test_ecc.suite);
      ("sim", Test_sim.suite);
      ("rmt", Test_rmt.suite);
      ("fault", Test_fault.suite);
      ("power", Test_power.suite);
      ("kernels", Test_kernels.suite);
      ("harness", Test_harness.suite);
      ("parallel", Test_parallel.suite);
      ("opt", Test_opt.suite);
      ("parse", Test_parse.suite);
      ("tmr", Test_tmr.suite);
      ("trace", Test_trace.suite);
      ("prof", Test_prof.suite);
      ("san", Test_san.suite);
      ("tv", Test_tv.suite);
      ("probe", Test_probe.suite);
    ]
