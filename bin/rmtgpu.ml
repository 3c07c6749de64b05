(* rmtgpu — command-line front end for the GPU-RMT reproduction.

   Subcommands:
     list                        list benchmarks
     dump    <bench> [variant]   print the (transformed) kernel IR
     run     <bench> [variant]   simulate and report cycles/counters; any
                                 combination of observers on the same run:
                                 --trace FILE (Chrome-trace JSON + ASCII
                                 timeline), --profile [--json FILE]
                                 (annotated IR listing, hot spots),
                                 --sanitize (exit 1 on findings)
     inject  <bench> <variant> <target> [n]  fault-injection campaign
                                 (with propagation provenance)
     perfdiff <old> <new>        diff two BENCH_<rev>.json trajectories;
                                 exit 1 when a threshold is crossed
     lint    <bench|file.rgk> [target]  static SoR-contract check, sanitized
                                 run (registry benchmarks), translation
                                 validation (simulation relation under fault
                                 injection) + protection-domain report + cost
                                 prediction; exit 1 on findings
     exp     <name>...           regenerate tables/figures (table1..fig9,
                                 coverage, extensions, all) and write the
                                 BENCH_<rev>.json perf trajectory

   Exit codes are uniform: 0 success, 1 findings/regressions in otherwise
   valid invocations, 2 usage errors (unknown subcommand, argument or
   input file problems; usage is printed to stderr). *)

module T = Rmt_core.Transform

let variants =
  [
    ("original", T.Original);
    ("intra+lds", T.intra_plus_lds);
    ("intra-lds", T.intra_minus_lds);
    ("intra+lds-fast", T.intra_plus_lds_fast);
    ("intra-lds-fast", T.intra_minus_lds_fast);
    ("inter", T.inter_group);
  ]

let variant_conv =
  let parse s =
    match List.assoc_opt (String.lowercase_ascii s) variants with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown variant %s (one of: %s)" s
               (String.concat ", " (List.map fst variants))))
  in
  let print fmt v = Format.pp_print_string fmt (T.name v) in
  Cmdliner.Arg.conv (parse, print)

let find_bench s =
  List.find_opt
    (fun (b : Kernels.Bench.t) ->
      String.lowercase_ascii b.id = String.lowercase_ascii s)
    Kernels.Registry.all

let bench_ids () =
  String.concat ", "
    (List.map (fun (b : Kernels.Bench.t) -> b.id) Kernels.Registry.all)

let bench_conv =
  let parse s =
    match find_bench s with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown benchmark %s (one of: %s)" s (bench_ids ())))
  in
  let print fmt (b : Kernels.Bench.t) = Format.pp_print_string fmt b.id in
  Cmdliner.Arg.conv (parse, print)

let write_json path json =
  Out_channel.with_open_text path (fun oc ->
      output_string oc json;
      output_char oc '\n')

(* ---------------- list ---------------- *)

let do_list () =
  List.iter
    (fun (b : Kernels.Bench.t) ->
      let k = b.make_kernel () in
      let stats = Gpu_ir.Stats.collect k in
      Printf.printf "%-8s %-22s %-16s %s\n" b.id b.name
        (Kernels.Bench.character_name b.character)
        (Gpu_ir.Stats.to_string stats))
    Kernels.Registry.all

(* ---------------- dump ---------------- *)

let do_dump (b : Kernels.Bench.t) variant ~alloc ~optimize =
  let dev = Gpu_sim.Device.create Gpu_sim.Config.default in
  let prep = b.prepare dev ~scale:1 in
  let nd = (List.hd prep.Kernels.Bench.steps).Kernels.Bench.nd in
  let k = Harness.Run.transformed_kernel ~optimize b variant ~nd in
  if alloc then print_string (Gpu_ir.Regalloc.annotate k)
  else print_string (Gpu_ir.Pp.kernel_to_string k);
  let u = Gpu_ir.Regpressure.analyze k in
  Printf.printf "\nresources: %s\n" (Gpu_ir.Regpressure.pp_usage u)

(* ---------------- run ---------------- *)

(* One simulation with any combination of observers attached: the run's
   summary, then one section per observer, each the same as with that
   observer alone. *)
let do_run (b : Kernels.Bench.t) variant scale optimize trace_out width
    profile json_out sanitize =
  let cfg = Gpu_sim.Config.default in
  let trace =
    Option.map (fun out -> (out, Gpu_trace.Sink.collector ())) trace_out
  in
  let san = if sanitize then Some (Gpu_san.Shadow.create ()) else None in
  let s, kernel, prof =
    Harness.Run.observe ~scale ~optimize
      ?trace:(Option.map (fun (_, tc) -> Gpu_trace.Sink.of_collector tc) trace)
      ~profile:(profile || json_out <> None) ?san b variant
  in
  Printf.printf "%s under %s: %d cycles over %d launches (%s, verified=%b)\n"
    b.id (T.name variant) s.cycles s.steps
    (Harness.Run.outcome_name s.outcome)
    s.verified;
  Printf.printf "occupancy: %s\n" (Gpu_sim.Occupancy.to_string s.occupancy);
  Printf.printf "resources: %s\n" (Gpu_ir.Regpressure.pp_usage s.usage);
  let c = s.counters in
  Printf.printf
    "counters: VALUBusy=%.1f%% MemUnitBusy=%.1f%% WriteUnitStalled=%.1f%% \
     LDSBusy=%.1f%%\n"
    (Gpu_sim.Counters.valu_busy_pct ~n_cus:cfg.n_cus
       ~simds_per_cu:cfg.simds_per_cu c)
    (Gpu_sim.Counters.mem_unit_busy_pct ~n_cus:cfg.n_cus c)
    (Gpu_sim.Counters.write_unit_stalled_pct ~n_cus:cfg.n_cus c)
    (Gpu_sim.Counters.lds_busy_pct ~n_cus:cfg.n_cus c);
  Printf.printf
    "          valu=%d salu=%d vmem=%d lds=%d atomics=%d barriers=%d\n"
    c.valu_insts c.salu_insts c.vmem_insts c.lds_insts c.atomics
    c.barriers_executed;
  let rep =
    Gpu_power.Power_model.report ~cfg ~windows:s.windows ~fallback:s.counters ()
  in
  Printf.printf "power: avg %.1f W, peak %.1f W\n" rep.average_w rep.peak_w;
  Option.iter
    (fun (out, tc) ->
      let records = Gpu_trace.Sink.records tc in
      let label = Printf.sprintf "%s under %s" b.id (T.name variant) in
      write_json out (Gpu_trace.Chrome.to_string ~label records);
      Printf.printf "\n%d scheduler events -> %s (load in chrome://tracing or \
                     ui.perfetto.dev)\n\n" (Gpu_trace.Sink.count tc) out;
      print_string
        (Gpu_trace.Timeline.render ~n_cus:cfg.n_cus
           ~simds_per_cu:cfg.simds_per_cu ~cycles:s.cycles ~width records);
      Printf.printf
        "\nstalls: write_stalled=%d cycles, spin_iterations=%d polls\n"
        c.write_stalled c.spin_iterations)
    trace;
  Option.iter
    (fun prof ->
      print_newline ();
      print_string (Gpu_prof.Report.annotated_listing kernel prof);
      print_newline ();
      print_string (Gpu_prof.Report.hotspots ~n:8 kernel prof);
      Option.iter
        (fun path ->
          write_json path
            (Gpu_trace.Json.to_string (Gpu_prof.Report.to_json kernel prof));
          Printf.printf "\nprofile JSON -> %s\n" path)
        json_out)
    prof;
  Option.iter
    (fun san ->
      print_newline ();
      print_string (Gpu_san.Report.to_string ~kernel san);
      if not (Gpu_san.Shadow.clean san) then exit 1)
    san

(* ---------------- perfdiff ---------------- *)

let do_perfdiff old_path new_path wall_tol counter_tol =
  let thresholds =
    { Harness.Perfdiff.wall_ratio = wall_tol; counter_rel = counter_tol }
  in
  match Harness.Perfdiff.report ~thresholds ~old_path ~new_path () with
  | text, failed ->
      print_string text;
      if failed then exit 1
  | exception Harness.Perfdiff.Bad_file msg ->
      Printf.eprintf "perfdiff: %s\n" msg;
      exit 2

(* ---------------- lint ---------------- *)

(* Read and verify a kernel in the IR text format; input problems are
   usage errors (exit 2). *)
let load_rgk path =
  let src =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  try Gpu_ir.Parse.kernel_of_string_checked src with
  | Gpu_ir.Parse.Parse_error (line, msg) ->
      Printf.eprintf "%s:%d: %s\n" path line msg;
      exit 2
  | Gpu_ir.Verify.Invalid msg ->
      Printf.eprintf "%s: verification failed: %s\n" path msg;
      exit 2

let lint_target_conv =
  let parse s =
    match Harness.Lint.target_of_string s with
    | Some t -> Ok (String.lowercase_ascii s, t)
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown lint target %s (one of: %s)" s
               (String.concat ", " (List.map fst Harness.Lint.all_targets))))
  in
  let print fmt (label, _) = Format.pp_print_string fmt label in
  Cmdliner.Arg.conv (parse, print)

(* The lint subject is a registry benchmark id or a path to an .rgk
   kernel file. Both get the static contract and the translation
   validation (the validator brings its own synthetic launch); only a
   benchmark has the host harness the sanitized run needs. *)
let do_lint subject target local max_exp full json_out =
  let targets =
    match target with Some t -> [ t ] | None -> Harness.Lint.all_targets
  in
  let max_experiments = if full then max_int else max_exp in
  let report =
    if Filename.check_suffix subject ".rgk" || Sys.file_exists subject then
      Harness.Lint.lint_kernel ~local_items:local ~max_experiments ~targets
        ~name:(Filename.basename subject) (load_rgk subject)
    else
      match find_bench subject with
      | Some b ->
          Harness.Lint.lint_bench ~local_items:local ~max_experiments ~targets b
      | None ->
          Printf.eprintf
            "unknown lint subject %s (a benchmark id among: %s — or a path \
             to an .rgk kernel file)\n"
            subject (bench_ids ());
          exit 2
  in
  print_string (Harness.Lint.to_string report);
  (match json_out with
  | Some path ->
      write_json path (Gpu_trace.Json.to_string (Harness.Lint.to_json report));
      Printf.printf "lint JSON -> %s\n" path
  | None -> ());
  if not (Harness.Lint.clean report) then exit 1

(* ---------------- inject ---------------- *)

let targets =
  [
    ("vgpr", Gpu_sim.Device.T_vgpr);
    ("sgpr", Gpu_sim.Device.T_sgpr);
    ("lds", Gpu_sim.Device.T_lds);
    ("l1", Gpu_sim.Device.T_l1);
  ]

let target_conv =
  let parse s =
    match List.assoc_opt (String.lowercase_ascii s) targets with
    | Some t -> Ok t
    | None -> Error (`Msg "target must be one of: vgpr, sgpr, lds, l1")
  in
  let print fmt t =
    Format.pp_print_string fmt
      (match t with
      | Gpu_sim.Device.T_vgpr -> "vgpr"
      | Gpu_sim.Device.T_sgpr -> "sgpr"
      | Gpu_sim.Device.T_lds -> "lds"
      | Gpu_sim.Device.T_l1 -> "l1")
  in
  Cmdliner.Arg.conv (parse, print)

let do_inject (b : Kernels.Bench.t) variant target n jobs show_prov sanitize =
  let ctx = Harness.Experiments.create_ctx ?jobs () in
  let e = Harness.Experiments.coverage_experiment ~sanitize ctx b variant in
  let obs =
    Fault.Campaign.run_observations ~n
      ~map:(Harness.Experiments.campaign_map ctx) ~target ~seed:97 e
  in
  Harness.Experiments.shutdown ctx;
  let t = Fault.Campaign.tally_of_observations obs in
  Printf.printf "%s under %s: %s%s\n" b.id (T.name variant)
    (Fault.Campaign.tally_to_string t)
    (if Fault.Campaign.covered t then "  [covered]" else "");
  if sanitize then begin
    let dirty =
      List.length
        (List.filter
           (fun o -> o.Fault.Campaign.san_clean = Some false)
           obs)
    in
    Printf.printf "  sanitizer: %d/%d injected runs with shadow findings\n"
      dirty (List.length obs)
  end;
  let psum = Fault.Campaign.provenance_summary obs in
  if psum <> "" then print_string psum;
  if show_prov then
    List.iteri
      (fun i o ->
        match o.Fault.Campaign.prov with
        | Some p when Gpu_prof.Provenance.applied p ->
            Printf.printf "  #%02d %s\n" i (Gpu_prof.Provenance.to_string p)
        | _ -> ())
      obs

(* ---------------- runfile ---------------- *)

(* Run a kernel written in the IR's text format. Arguments are declared
   positionally with --arg, matching the kernel's parameter order:
     --arg buf:WORDS[:zero|index|findex|i32=V|f32=X]   a global buffer
     --arg i32:V / --arg f32:X                         a scalar
   --show IDX:LO:HI[:f32] prints a buffer slice afterwards. *)

type runfile_arg =
  | RA_buf of int * [ `Zero | `Index | `Findex | `I32 of int | `F32 of float ]
  | RA_i32 of int
  | RA_f32 of float

let parse_runfile_arg sp =
  let parts = String.split_on_char ':' sp in
  match parts with
  | [ "i32"; v ] -> Ok (RA_i32 (int_of_string v))
  | [ "f32"; x ] -> Ok (RA_f32 (float_of_string x))
  | "buf" :: words :: rest -> (
      let words = int_of_string words in
      if words < 1 then
        Error (`Msg ("bad --arg " ^ sp ^ " (WORDS must be positive)"))
      else
        match rest with
        | [] | [ "zero" ] -> Ok (RA_buf (words, `Zero))
        | [ "index" ] -> Ok (RA_buf (words, `Index))
        | [ "findex" ] -> Ok (RA_buf (words, `Findex))
        | [ init ] -> (
            match String.split_on_char '=' init with
            | [ "i32"; v ] -> Ok (RA_buf (words, `I32 (int_of_string v)))
            | [ "f32"; x ] -> Ok (RA_buf (words, `F32 (float_of_string x)))
            | _ -> Error (`Msg ("bad buffer initializer " ^ init)))
        | _ -> Error (`Msg ("bad --arg " ^ sp)))
  | _ -> Error (`Msg ("bad --arg " ^ sp))

let runfile_arg_conv =
  Cmdliner.Arg.conv
    ( (fun sp -> try parse_runfile_arg sp with _ -> Error (`Msg ("bad --arg " ^ sp))),
      fun fmt _ -> Format.pp_print_string fmt "<arg>" )

let parse_show sp =
  let slice i lo hi as_f32 =
    let i = int_of_string i
    and lo = int_of_string lo
    and hi = int_of_string hi in
    if i < 0 || lo < 0 || hi < lo then
      Error (`Msg ("bad --show " ^ sp ^ " (want IDX >= 0 and 0 <= LO <= HI)"))
    else Ok (i, lo, hi, as_f32)
  in
  match String.split_on_char ':' sp with
  | [ i; lo; hi ] -> slice i lo hi false
  | [ i; lo; hi; "f32" ] -> slice i lo hi true
  | _ -> Error (`Msg ("bad --show " ^ sp))

let show_conv =
  Cmdliner.Arg.conv
    ( (fun sp -> try parse_show sp with _ -> Error (`Msg ("bad --show " ^ sp))),
      fun fmt _ -> Format.pp_print_string fmt "<show>" )

let do_runfile path variant global local arg_specs shows =
  let k0 = load_rgk path in
  let nparams = Gpu_ir.Types.param_count k0 in
  if List.length arg_specs <> nparams then begin
    Printf.eprintf "%s: kernel %s takes %d --arg(s), got %d\n" path
      k0.Gpu_ir.Types.kname nparams (List.length arg_specs);
    exit 2
  end;
  List.iter
    (fun (idx, _, _, _) ->
      match List.nth_opt arg_specs idx with
      | Some (RA_buf _) -> ()
      | _ ->
          Printf.eprintf "%s: --show %d: parameter %d is not a buffer\n" path
            idx idx;
          exit 2)
    shows;
  let k =
    try T.apply variant ~local_items:local k0
    with Rmt_core.Intra_group.Unsupported msg ->
      Printf.eprintf "cannot apply %s: %s\n" (T.name variant) msg;
      exit 2
  in
  let dev = Gpu_sim.Device.create Gpu_sim.Config.default in
  let nd0 = Gpu_sim.Geom.make_ndrange global local in
  let nd = T.map_ndrange variant nd0 in
  let buffers = Hashtbl.create 8 in
  let args =
    List.mapi
      (fun i spec ->
        match spec with
        | RA_buf (words, init) ->
            let b = Gpu_sim.Device.alloc dev (words * 4) in
            for j = 0 to words - 1 do
              match init with
              | `Zero -> Gpu_sim.Device.write_i32 dev b j 0
              | `Index -> Gpu_sim.Device.write_i32 dev b j j
              | `Findex -> Gpu_sim.Device.write_f32 dev b j (float_of_int j)
              | `I32 v -> Gpu_sim.Device.write_i32 dev b j v
              | `F32 x -> Gpu_sim.Device.write_f32 dev b j x
            done;
            Hashtbl.replace buffers i (b, words);
            Gpu_sim.Device.A_buf b
        | RA_i32 v -> Gpu_sim.Device.A_i32 v
        | RA_f32 x -> Gpu_sim.Device.A_f32 x)
      arg_specs
  in
  let args = args @ T.extra_args variant dev ~nd:nd0 in
  let r =
    try Gpu_sim.Device.launch dev k ~nd ~args
    with Invalid_argument msg ->
      Printf.eprintf "%s: cannot launch: %s\n" path msg;
      exit 2
  in
  Printf.printf "%s under %s: %d cycles (%s)\n" k0.Gpu_ir.Types.kname
    (T.name variant) r.Gpu_sim.Device.cycles
    (Harness.Run.outcome_name r.Gpu_sim.Device.outcome);
  List.iter
    (fun (idx, lo, hi, as_f32) ->
      let b, words = Hashtbl.find buffers idx in
      let hi = min hi words in
      Printf.printf "param %d [%d..%d):" idx lo hi;
      for i = lo to hi - 1 do
        if as_f32 then Printf.printf " %g" (Gpu_sim.Device.read_f32 dev b i)
        else Printf.printf " %d" (Gpu_sim.Device.read_i32 dev b i)
      done;
      print_newline ())
    shows

(* ---------------- exp ---------------- *)

(* Report text goes to stdout as each experiment finishes and is
   byte-identical at any -j; progress and pool statistics go to stderr.
   The perf-trajectory file records every completed simulated run, the
   per-experiment wall clock and the pool statistics, for a later
   revision to diff against with [perfdiff]. *)
let do_exp names quick jobs =
  match Harness.Experiments.select names with
  | Error msg -> `Error (true, msg)
  | Ok selected ->
      let ctx = Harness.Experiments.create_ctx ~quick ?jobs () in
      Printf.eprintf "[exp] %d worker domain(s)\n%!"
        (Harness.Experiments.jobs ctx);
      let timings =
        List.map
          (fun (name, f) ->
            Printf.eprintf "[exp] %s\n%!" name;
            let t0 = Unix.gettimeofday () in
            print_string (f ctx);
            (name, Unix.gettimeofday () -. t0))
          selected
      in
      let rev = Harness.Metrics.rev () in
      let out =
        match Sys.getenv_opt "RMTGPU_BENCH_OUT" with
        | Some p when String.trim p <> "" -> p
        | _ -> Printf.sprintf "BENCH_%s.json" rev
      in
      Harness.Metrics.write_file out
        (Harness.Metrics.bench_json ~rev
           ~jobs:(Harness.Experiments.jobs ctx)
           ~experiments:timings
           ~runs:(Harness.Experiments.cached_summaries ctx)
           ~pool:(Harness.Experiments.pool_stats ctx));
      Printf.eprintf "[exp] wrote %s\n%!" out;
      if Harness.Experiments.jobs ctx > 1 then
        Printf.eprintf "[exp] pool: %s\n%!"
          (Harness.Experiments.pool_stats_line ctx);
      Harness.Experiments.shutdown ctx;
      `Ok ()

(* ---------------- cmdliner wiring ---------------- *)

open Cmdliner

(* Every count on the command line (sizes, scales, widths, workers) is at
   least 1. *)
let count_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %s" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_opt =
  Arg.(
    value
    & opt (some count_conv) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for independent simulations (default: \
           $(b,RMTGPU_JOBS), else the machine's recommended domain count; \
           1 = sequential). Output is byte-identical at any $(docv).")

let bench_arg = Arg.(required & pos 0 (some bench_conv) None & info [] ~docv:"BENCH")

let variant_arg ~pos:p =
  Arg.(value & pos p variant_conv T.Original & info [] ~docv:"VARIANT")

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark kernels")
    Term.(const do_list $ const ())

let dump_cmd =
  let alloc =
    Arg.(value & flag & info [ "alloc" ] ~doc:"Annotate with physical registers")
  in
  let optimize =
    Arg.(value & flag & info [ "O" ] ~doc:"Run the optimizer pipeline first")
  in
  let dump b v alloc optimize = do_dump b v ~alloc ~optimize in
  Cmd.v (Cmd.info "dump" ~doc:"Print a (transformed) kernel's IR")
    Term.(const dump $ bench_arg $ variant_arg ~pos:1 $ alloc $ optimize)

let run_cmd =
  let scale =
    Arg.(
      value & opt count_conv 1
      & info [ "scale" ] ~docv:"N" ~doc:"Problem-size multiplier")
  in
  let optimize =
    Arg.(value & flag & info [ "O" ] ~doc:"Run the optimizer pipeline first")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Attach the scheduler-event sink: write a Chrome-trace (Perfetto) \
             JSON to $(docv) and print an ASCII per-CU timeline and the \
             stall counters")
  in
  let width =
    Arg.(
      value & opt count_conv 64
      & info [ "width" ] ~docv:"COLS"
          ~doc:"Columns of the $(b,--trace) per-CU utilization timeline")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attach the per-instruction profiler: print the annotated IR \
             listing with per-line cycle share, stall breakdown and cache \
             behaviour, and a hot-spot table")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the profile as JSON (implies $(b,--profile))")
  in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Attach the dynamic sanitizer (races, uninitialized reads, \
             out-of-bounds) and print its report; exit 1 on findings")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Simulate a benchmark under an RMT variant and report cycles, \
          counters and power; $(b,--trace), $(b,--profile) and \
          $(b,--sanitize) observe the same run, in any combination")
    Term.(
      const do_run $ bench_arg $ variant_arg ~pos:1 $ scale $ optimize $ trace
      $ width $ profile $ json_out $ sanitize)

let inject_cmd =
  let variant =
    Arg.(required & pos 1 (some variant_conv) None & info [] ~docv:"VARIANT")
  in
  let target =
    Arg.(required & pos 2 (some target_conv) None & info [] ~docv:"TARGET")
  in
  let n =
    Arg.(value & opt count_conv 24 & info [ "n" ] ~doc:"Number of injections")
  in
  let show_prov =
    Arg.(
      value & flag
      & info [ "prov" ]
          ~doc:"Print each injection's propagation provenance (flip site, \
                first consuming instruction, flip-to-detect distance)")
  in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:"Attach the dynamic sanitizer to every injected run and \
                report how many came back with shadow findings (a corrupted \
                address can surface as an out-of-bounds access)")
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:"Run a fault-injection campaign with propagation provenance")
    Term.(
      const do_inject $ bench_arg $ variant $ target $ n $ jobs_opt $ show_prov
      $ sanitize)

let lint_cmd =
  let subject =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCH|FILE.rgk"
          ~doc:"Registry benchmark id, or path to an .rgk kernel file")
  in
  let target =
    Arg.(
      value
      & pos 1 (some lint_target_conv) None
      & info [] ~docv:"TARGET"
          ~doc:
            "Lint a single target (baseline, intra+lds, intra-lds, \
             intra+fast, inter, tmr); default: all six")
  in
  let local =
    Arg.(
      value & opt count_conv Gpu_tv.Simrel.default_local_items
      & info [ "local" ] ~docv:"N"
          ~doc:
            "Flat work-group size of the validator's synthetic launch (small \
             by design: every fault experiment re-executes the whole kernel); \
             an .rgk file is also transformed at this size for the static \
             contract check")
  in
  let max_exp =
    Arg.(
      value & opt count_conv Harness.Lint.default_max_experiments
      & info [ "max-exp" ] ~docv:"N"
          ~doc:"Fault-injection experiments sampled per target")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Run every enumerable fault-injection experiment (no sampling)")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the report as JSON")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Verify the RMT transforms per target: the static \
          sphere-of-replication contract, a run of the benchmark under the \
          dynamic sanitizer (races, uninitialized reads, out-of-bounds; \
          registry benchmarks only, not TMR), and translation validation — \
          the simulation relation between original and transformed kernel \
          under fault injection, the static protection-domain matrix and \
          the cost prediction; exit 1 on findings")
    Term.(
      const do_lint $ subject $ target $ local $ max_exp $ full $ json_out)

let perfdiff_cmd =
  let old_path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.json")
  in
  let new_path =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.json")
  in
  let wall_tol =
    Arg.(
      value
      & opt float Harness.Perfdiff.default_thresholds.Harness.Perfdiff.wall_ratio
      & info [ "wall-tol" ] ~docv:"RATIO"
          ~doc:
            "Flag an experiment when its wall-clock grew beyond \
             $(docv) times the old value (wall time is machine-noisy; keep \
             this generous)")
  in
  let counter_tol =
    Arg.(
      value
      & opt float
          Harness.Perfdiff.default_thresholds.Harness.Perfdiff.counter_rel
      & info [ "counter-tol" ] ~docv:"FRAC"
          ~doc:
            "Flag a simulated cost counter when it grew by more than this \
             fraction (counters are deterministic; keep this tight)")
  in
  Cmd.v
    (Cmd.info "perfdiff"
       ~doc:
         "Diff two BENCH_<rev>.json perf trajectories and gate on \
          regressions (exit 1 when a threshold is crossed)")
    Term.(const do_perfdiff $ old_path $ new_path $ wall_tol $ counter_tol)

let exp_cmd =
  let names =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"EXP"
          ~doc:
            (Printf.sprintf "Experiments to run, in order: %s, or all"
               (String.concat ", " (List.map fst Harness.Experiments.registry))))
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced fault campaigns")
  in
  Cmd.v
    (Cmd.info "exp"
       ~doc:
         "Regenerate tables and figures of the paper and write the \
          $(b,BENCH_<rev>.json) perf trajectory ($(b,RMTGPU_BENCH_OUT) \
          overrides the path, $(b,RMTGPU_REV) the revision stamp)")
    Term.(ret (const do_exp $ names $ quick $ jobs_opt))

let runfile_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let variant =
    Arg.(value & opt variant_conv T.Original & info [ "variant" ] ~docv:"VARIANT")
  in
  let global =
    Arg.(required & opt (some count_conv) None & info [ "global" ] ~docv:"N")
  in
  let local =
    Arg.(required & opt (some count_conv) None & info [ "local" ] ~docv:"N")
  in
  let args =
    Arg.(value & opt_all runfile_arg_conv [] & info [ "arg" ] ~docv:"SPEC")
  in
  let shows =
    Arg.(value & opt_all show_conv [] & info [ "show" ] ~docv:"IDX:LO:HI[:f32]")
  in
  Cmd.v
    (Cmd.info "runfile" ~doc:"Run a kernel written in the IR text format")
    Term.(const do_runfile $ path $ variant $ global $ local $ args $ shows)

let () =
  let info =
    Cmd.info "rmtgpu" ~version:"1.0.0"
      ~doc:"Compiler-managed GPU redundant multithreading (ISCA 2014) reproduction"
  in
  let code =
    Cmd.eval
      (Cmd.group info
         [ list_cmd; dump_cmd; run_cmd; inject_cmd; lint_cmd; perfdiff_cmd;
           exp_cmd; runfile_cmd ])
  in
  (* Uniform usage-error code: cmdliner reports unknown subcommands and bad
     arguments (with usage) as 124/125; fold both onto the conventional 2
     so scripts see one code for every malformed invocation. *)
  exit
    (if code = Cmd.Exit.cli_error || code = Cmd.Exit.internal_error then 2
     else code)
