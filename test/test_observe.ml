(* The sanitizer and the profiler. *)
let () =
  Runner.run "gpu_rmt_observe" [ ("prof", Test_prof.suite); ("san", Test_san.suite) ]
