(** Bechamel micro-benchmarks: one per table and figure of the paper's
    evaluation, each measuring the wall-clock cost of that experiment's
    representative unit of work.

    Usage:
      dune exec bench/main.exe

    The tables and figures themselves, and the [BENCH_<rev>.json]
    perf-trajectory file, come from [rmtgpu exp]. *)

module T = Rmt_core.Transform

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure            *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let stage_run bench_id variant =
    let bench = Kernels.Registry.find bench_id in
    Staged.stage (fun () -> ignore (Harness.Run.run bench variant))
  in
  [
    (* Table 1: the SEC-DED codec behind the overhead estimates *)
    Test.make ~name:"table1/secded-encode-decode"
      (Staged.stage (fun () ->
           let code = Ecc.Sec_ded.encode32 0xDEADBEE in
           match Ecc.Sec_ded.decode32 code with
           | Ok _ -> ()
           | Error _ -> assert false));
    (* Tables 2/3: SoR table rendering (static analysis path) *)
    Test.make ~name:"table2/sor-render"
      (Staged.stage (fun () ->
           ignore
             (Rmt_core.Sor.render_table
                [ Rmt_core.Sor.Intra_plus_lds; Rmt_core.Sor.Intra_minus_lds ])));
    Test.make ~name:"table3/sor-render"
      (Staged.stage (fun () ->
           ignore (Rmt_core.Sor.render_table [ Rmt_core.Sor.Inter_group ])));
    (* Figure 2: an Intra-Group transformed kernel run *)
    Test.make ~name:"fig2/sf-intra-plus-lds" (stage_run "SF" T.intra_plus_lds);
    (* Figure 3: counter collection on an original kernel *)
    Test.make ~name:"fig3/sf-original" (stage_run "SF" T.Original);
    (* Figure 4: the transform itself (compile-time cost) *)
    Test.make ~name:"fig4/transform-intra"
      (Staged.stage
         (let k = (Kernels.Registry.find "MM").make_kernel () in
          fun () -> ignore (T.apply T.intra_plus_lds ~local_items:64 k)));
    (* Figure 5: power-model evaluation of a counter window *)
    Test.make ~name:"fig5/power-window"
      (Staged.stage
         (let c = Gpu_sim.Counters.create () in
          c.Gpu_sim.Counters.cycles <- 5000;
          c.Gpu_sim.Counters.valu_lane_ops <- 100000;
          fun () ->
            ignore
              (Gpu_power.Power_model.window_power ~cfg:Gpu_sim.Config.default c)));
    (* Figure 6: an Inter-Group transformed kernel run *)
    Test.make ~name:"fig6/qrs-inter-group" (stage_run "QRS" T.inter_group);
    (* Figure 7: the Inter-Group transform (compile-time cost) *)
    Test.make ~name:"fig7/transform-inter"
      (Staged.stage
         (let k = (Kernels.Registry.find "MM").make_kernel () in
          fun () -> ignore (T.apply T.inter_group ~local_items:64 k)));
    (* Figure 8: swizzle execution in the wavefront interpreter *)
    Test.make ~name:"fig8/swizzle-wave"
      (Staged.stage
         (let open Gpu_ir.Types in
          let k =
            {
              kname = "swizzle";
              params = [];
              lds_allocs = [];
              body = [ I (Swizzle (Dup_odd, 1, Reg 0)) ];
              nregs = 4;
            }
          in
          let prog =
            Gpu_sim.Wave.decode k ~lds_base:(fun _ -> 0) ~arg:(fun _ -> 0)
              ~line_bytes:64
          in
          let w =
            Gpu_sim.Wave.create prog ~wid:0 ~nregs:4 ~nlanes:64 ~flat_base:0
              ~view:
                {
                  Gpu_sim.Geom.nd = Gpu_sim.Geom.make_ndrange 64 64;
                  gcoord = [| 0; 0; 0 |];
                }
              ~simd:0
          in
          ignore (Gpu_sim.Wave.peek w ~now:0 ~on_branch:ignore);
          let e = w.Gpu_sim.Wave.cur in
          let mem =
            {
              Gpu_sim.Wave.mload = (fun _ _ -> 0);
              mstore = (fun _ _ _ -> ());
              matomic = (fun _ _ _ _ -> 0);
              mcas = (fun _ _ _ _ -> 0);
              msan = None;
            }
          in
          fun () -> ignore (Gpu_sim.Wave.exec w e ~mem)));
    (* Figure 9: FAST communication variant run *)
    Test.make ~name:"fig9/dwt-fast" (stage_run "DWT" T.intra_plus_lds_fast);
    (* Coverage: one injected run *)
    Test.make ~name:"coverage/injected-run"
      (Staged.stage
         (let bench = Kernels.Registry.find "R" in
          fun () ->
            ignore
              (Harness.Run.run bench T.intra_plus_lds
                 ~inject:
                   {
                     Gpu_sim.Device.at_cycle = 1000;
                     target = Gpu_sim.Device.T_vgpr;
                     iseed = 7;
                   })));
  ]

let run_micro () =
  let open Bechamel in
  print_string "\n== Bechamel micro-benchmarks (one per table/figure) ==\n";
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:None
      ~stabilize:false ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let ols =
            Analyze.OLS.ols ~bootstrap:0 ~r_square:true
              ~responder:(Measure.label Toolkit.Instance.monotonic_clock)
              ~predictors:[| "run" |] raw.Benchmark.lr
          in
          let est =
            match Analyze.OLS.estimates ols with
            | Some [ e ] -> e
            | _ -> Float.nan
          in
          Printf.printf "%-32s %14.1f ns/run (r2=%s)\n%!" (Test.Elt.name elt)
            est
            (match Analyze.OLS.r_square ols with
            | Some r -> Printf.sprintf "%.3f" r
            | None -> "n/a"))
        (Test.elements test))
    (micro_tests ())

let () = run_micro ()
