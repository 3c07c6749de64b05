(* The harness determinism tests and the small suites. *)
let () =
  Runner.run "gpu_rmt"
    [
      ("ir", Test_ir.suite);
      ("ecc", Test_ecc.suite);
      ("rmt", Test_rmt.suite);
      ("power", Test_power.suite);
      ("harness", Test_harness.suite);
      ("parallel", Test_parallel.suite);
      ("opt", Test_opt.suite);
      ("parse", Test_parse.suite);
      ("tmr", Test_tmr.suite);
      ("trace", Test_trace.suite);
    ]
