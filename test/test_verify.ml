(* The translation validator and the launch observers. *)
let () =
  Runner.run "gpu_rmt_verify" [ ("tv", Test_tv.suite); ("probe", Test_probe.suite) ]
