(* The simulator, the benchmark kernels and fault campaigns. *)
let () =
  Runner.run "gpu_rmt_engine"
    [
      ("sim", Test_sim.suite);
      ("fault", Test_fault.suite);
      ("kernels", Test_kernels.suite);
    ]
