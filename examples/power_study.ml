(* Power study: reproduce the Figure 5 methodology on one benchmark —
   sample the simulated power monitor over fixed windows during original
   and RMT execution, and show that RMT barely moves average power (the
   paper's conclusion: RMT's energy cost is its runtime, not its power).

   Run with: dune exec examples/power_study.exe *)

module T = Rmt_core.Transform
module P = Gpu_power.Power_model

let window = 2_000

let trace variant name =
  let bench = Kernels.Registry.find "BO" in
  let cfg = { Gpu_sim.Config.default with window_cycles = window } in
  let s = Harness.Run.run ~cfg bench variant in
  let rep =
    P.report ~cfg ~windows:s.windows
      ~fallback:s.counters ()
  in
  Printf.printf "\n%s: %d cycles, avg %.1f W, peak %.1f W\n" name s.cycles
    rep.average_w rep.peak_w;
  print_string "monitor trace: ";
  Array.iteri
    (fun i w ->
      if i < 24 then Printf.printf "%.0f " w
      else if i = 24 then print_string "...")
    rep.samples;
  print_newline ();
  (s.cycles, rep.average_w)

let () =
  Printf.printf "power monitor window: %d cycles (%.3f ms at 1 GHz, scaled \n"
    window
    (float_of_int window /. 1e6);
  Printf.printf "down with the input sizes from the paper's 1 ms)\n";
  let base_cycles, base_w = trace T.Original "BinomialOption original" in
  let rmt_cycles, rmt_w = trace T.intra_plus_lds "BinomialOption Intra+LDS" in
  let energy c w = float_of_int c /. 1e9 *. w in
  Printf.printf
    "\npower delta: %+.1f%%   runtime delta: %+.0f%%   energy delta: %+.0f%%\n"
    (100. *. (rmt_w -. base_w) /. base_w)
    (100. *. (float_of_int rmt_cycles /. float_of_int base_cycles -. 1.))
    (100.
    *. ((energy rmt_cycles rmt_w /. energy base_cycles base_w) -. 1.));
  print_endline
    "=> energy consumption is dominated by the runtime overhead, not power \
     (paper Section 6.5)"
