(** rmtbench: the repository benchmark.

    [rmtbench --workload W --seed N --seconds S --trace 0|1] sets up,
    then runs workload [W]'s fixed job list: one whole pass, then more
    passes while [S] seconds have not passed. It checks every job's
    output, checks that every repetition of a job reproduces its first
    execution exactly (repeating once, after the loop, the jobs the
    loop ran only once), and prints a human-readable report followed by
    one JSON line of metrics.

    With [--trace 0] each job is the user-facing call and the metrics
    are end to end. With [--trace 1] each job also runs as a traced
    replay through every layer's public functions; the replay must
    reproduce the job's digest exactly, and the metrics are per layer.
    [--setup-only] stops after set-up (run.py times it). *)

module Run = Harness.Run
module Counters = Gpu_sim.Counters
module Campaign = Fault.Campaign

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Metric catalogue (must match BENCHMARK.json; run.py checks it)      *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("jobs_per_s", "1/s");
    ("job_p50_s", "s");
    ("job_tail_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("gpu_sim.launch_s", "s");
    ("gpu_sim.create_s", "s");
    ("gpu_sim.issues_per_launch_s", "1/s");
    ("gpu_sim.minor_words_per_issue", "words");
    ("gpu_sim.issues", "count");
    ("gpu_sim.cycles", "cycles");
    ("sim_issues_per_s", "1/s");
    ("sim.l1_hit_pct", "%");
    ("sim.l2_hit_pct", "%");
    ("sim.valu_busy_pct", "%");
    ("sim.mem_unit_busy_pct", "%");
    ("sim.lds_busy_pct", "%");
    ("sim.write_stalled_pct", "%");
    ("sim.spin_iterations", "count");
    ("rmt_core.transform_s", "s");
    ("rmt_core.sor_check_s", "s");
    ("rmt_core.static_insts.original", "count");
    ("rmt_core.static_insts.intra_plus_lds", "count");
    ("rmt_core.static_insts.intra_minus_lds", "count");
    ("rmt_core.static_insts.inter", "count");
    ("rmt_core.kernels_covered", "count");
    ("slowdown_gm.intra_plus_lds", "x");
    ("slowdown_gm.intra_minus_lds", "x");
    ("slowdown_gm.inter", "x");
    ("paper_rho.intra_plus_lds", "rho");
    ("paper_rho.inter", "rho");
    ("gpu_ir.analyses_s", "s");
    ("kernels.prepare_s", "s");
    ("kernels.verify_s", "s");
    ("gpu_power.model_s", "s");
    ("fault.injections", "count");
    ("fault.applied_frac", "fraction");
    ("fault.detected", "count");
    ("fault.masked", "count");
    ("fault.sdc", "count");
    ("fault.hang", "count");
    ("fault.hang_s", "s");
    ("fault.golden_s", "s");
    ("detect_latency_p50_cycles", "cycles");
    ("gpu_san.launch_s", "s");
    ("gpu_san.overhead_x", "x");
    ("gpu_san.findings", "count");
    ("gpu_findings.render_s", "s");
    ("gpu_tv.subject_s", "s");
    ("gpu_tv.validate_s", "s");
    ("gpu_tv.domains_s", "s");
    ("gpu_tv.costmodel_s", "s");
    ("gpu_tv.experiments", "count");
    ("gpu_tv.timeout_frac", "fraction");
    ("gpu_tv.not_exercised_frac", "fraction");
    ("harness.run_glue_s", "s");
    ("harness.jobs", "count");
    ("fail_frac", "fraction");
    ("bench.trace_overhead_frac", "fraction");
    ("bench.calibration_s", "s");
    ("gc.minor_words", "words");
    ("gc.promoted_words", "words");
    ("gc.major_collections", "count");
  ]

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(** Construct and verify every registry kernel under every flavor;
    returns the generated-code size per flavor ([Site.count] summed over
    the registry). *)
let build_kernels () =
  let dev = Gpu_sim.Device.create Jobs.cfg in
  let sizes = List.map (fun (f, _) -> (f, ref 0)) Jobs.flavors in
  List.iter
    (fun (b : Kernels.Bench.t) ->
      Gpu_sim.Device.free_all dev;
      let prep = b.prepare dev ~scale:1 in
      let nd = (List.hd prep.steps).nd in
      List.iter
        (fun (f, v) ->
          let k = Run.transformed_kernel b v ~nd in
          Gpu_ir.Verify.check k;
          let r = List.assoc f sizes in
          r := !r + Gpu_ir.Site.count k)
        Jobs.flavors)
    Kernels.Registry.all;
  List.map (fun (f, r) -> (f, !r)) sizes

(* ------------------------------------------------------------------ *)
(* Calibration                                                         *)
(* ------------------------------------------------------------------ *)

(* The host is shared, and its speed drifts by tens of percent over
   minutes. A fixed loop that uses none of the repository's code is
   timed between jobs: hashing, sorting, list allocation, and a pass
   over a 16 MiB block allocated once (so it adds a constant to the
   resident set). Every host time is reported at the loop's nominal
   speed: raw seconds * [reference_nominal_s] / the median loop time of
   the run. The raw figures are printed in the report. *)

let reference_block = Bytes.make (16 * 1024 * 1024) '\000'

let reference () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 40_000 do
    Hashtbl.replace h (i * 7919) (float_of_int i)
  done;
  let acc = ref 0.0 in
  for i = 0 to 40_000 do
    acc := !acc +. Hashtbl.find h (i * 7919)
  done;
  let a = Array.init 60_000 (fun i -> float_of_int (i * 104729 mod 60_000)) in
  Array.sort compare a;
  let l = List.init 60_000 (fun i -> (i, i * 2)) in
  let s = List.fold_left (fun x (a, b) -> x + a + b) 0 (List.rev l) in
  Bytes.fill reference_block 0 (Bytes.length reference_block) (Char.chr (s land 255));
  ignore (Sys.opaque_identity (s, !acc, a))

(** The loop's typical time on the 2-core reference host. *)
let reference_nominal_s = 0.045

let calibration = ref []

let calibrate () =
  let t0 = now () in
  reference ();
  calibration := (now () -. t0) :: !calibration

(** Jobs between two timings of the loop: about half a second of work.
    A count rather than a clock keeps the run's allocation sequence, and
    so its garbage collections and peak resident set, deterministic. *)
let calibrate_every = function
  | "lint" -> 12
  | "campaign" -> 2
  | "sanitize" -> 1
  | _ -> 3

(* ------------------------------------------------------------------ *)
(* Executing jobs                                                      *)
(* ------------------------------------------------------------------ *)

(** One execution of one job. *)
type exec = {
  index : int;  (** position in the workload's job list *)
  wall : float;  (** host seconds of the user-facing call *)
  info : Jobs.info;
  minor : float;  (** minor words allocated by the user-facing call *)
  promoted : float;
  majors : int;
  traced : float;  (** host seconds of the traced replay *)
  layers : (string * float) list;  (** the replay's seconds per layer *)
  launch_words : float;  (** minor words inside the replay's launches *)
  unobserved : float;  (** host seconds of the unsanitized run *)
  problems : string list;  (** fidelity and repetition failures *)
}

let guarded label f =
  try f ()
  with e ->
    let msg = Printexc.to_string e in
    {
      Jobs.digest = "exception " ^ msg;
      failure = Some ("host exception in " ^ label ^ ": " ^ msg);
      detail = Jobs.Host_exception msg;
    }

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** Run a job's user-facing call on an empty minor heap, so its minor
    allocation is a function of the job alone. *)
let user_call (job : Jobs.job) =
  Gc.minor ();
  let s0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let info, wall = timed (fun () -> guarded job.label job.run) in
  let w1 = Gc.minor_words () and s1 = Gc.quick_stat () in
  ( info,
    wall,
    w1 -. w0,
    s1.promoted_words -. s0.promoted_words,
    s1.major_collections - s0.major_collections )

let execute ~spans ~index (job : Jobs.job) =
  let info, wall, minor, promoted, majors = user_call job in
  let base =
    { index; wall; info; minor; promoted; majors; traced = 0.0;
      layers = []; launch_words = 0.0; unobserved = 0.0; problems = [] }
  in
  match spans with
  | None -> base
  | Some sp ->
      let unobserved =
        match job.plain with Some f -> snd (timed f) | None -> 0.0
      in
      let w0 = !Jobs.launch_minor_words in
      let replayed, traced, layers =
        Spans.job sp ~id:index ~name:job.label (fun () ->
            guarded job.label (fun () -> job.replay sp))
      in
      let glue = List.assoc "harness.run_glue" layers in
      let problems =
        (if replayed.digest <> info.digest then
           [ job.label ^ ": traced replay differs from the user-facing run" ]
         else [])
        @
        if glue < -1e-6 then [ job.label ^ ": layer spans exceed the job wall" ]
        else []
      in
      { base with traced; layers; unobserved; problems;
        launch_words = !Jobs.launch_minor_words -. w0 }

let failed e = e.info.failure <> None || e.problems <> []

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let isum f l = List.fold_left (fun a x -> a + f x) 0 l
let ratio a b = if b = 0.0 then 0.0 else a /. b

(** Job-time quantiles. Job times cluster by kernel and flavor, and a
    single order statistic jumps between clusters when one job moves
    across a rank. Each quantile is therefore the mean of the order
    statistics within n/10 ranks (at most 10) of its rank. *)
let smoothed_rank sorted rank =
  let n = Array.length sorted in
  let h = max 0 (min 10 (n / 10)) in
  let lo = max 0 (rank - h) and hi = min (n - 1) (rank + h) in
  let s = ref 0.0 in
  for i = lo to hi do
    s := !s +. sorted.(i)
  done;
  !s /. float_of_int (hi - lo + 1)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let job_p50 xs =
  let a = sorted xs in
  if a = [||] then 0.0 else smoothed_rank a ((Array.length a - 1) / 2)

(** The highest percentile with at least 10 jobs beyond it: the value,
    the percentile and the job count. Fewer than 11 jobs: the maximum. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0)
  else if n <= 10 then (a.(n - 1), 100.0, n)
  else (smoothed_rank a (n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n, n)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

(* The paper's bar values (Figs. 2 and 6), as read off the figures for
   Harness.Experiments.paper_compare. *)
let paper_fig2_plus_lds =
  [ ("BinS", 1.05); ("BO", 2.15); ("BitS", 1.05); ("BlkSch", 2.10);
    ("DCT", 2.20); ("DWT", 2.40); ("FWT", 1.10); ("FW", 2.20); ("MM", 2.30);
    ("NB", 2.20); ("PS", 1.60); ("QRS", 2.10); ("R", 2.20); ("SC", 0.95);
    ("SF", 1.10); ("URNG", 2.20) ]

let paper_fig6_inter =
  [ ("BinS", 1.30); ("BO", 2.10); ("BitS", 9.48); ("BlkSch", 2.20);
    ("DCT", 2.40); ("DWT", 7.35); ("FWT", 9.37); ("FW", 2.20); ("MM", 2.20);
    ("NB", 1.16); ("PS", 1.59); ("QRS", 2.20); ("R", 1.90); ("SC", 1.10);
    ("SF", 1.60); ("URNG", 2.20) ]

(** Per kernel run fault-free under all four flavors: RMT cycles over
    Original cycles for +LDS, -LDS and Inter. *)
let slowdown_rows (infos : Jobs.info list) =
  let cycles = Hashtbl.create 64 in
  List.iter
    (fun (i : Jobs.info) ->
      match i.detail with
      | Jobs.Sim s | Jobs.Sanitized { summary = s; _ } ->
          Hashtbl.replace cycles (s.bench_id, Rmt_core.Transform.name s.variant)
            s.cycles
      | _ -> ())
    infos;
  List.filter_map
    (fun (b : Kernels.Bench.t) ->
      let get (_, v) =
        Hashtbl.find_opt cycles (b.id, Rmt_core.Transform.name v)
      in
      match List.map get Jobs.flavors with
      | [ Some base; Some p; Some m; Some i ] when base > 0 ->
          let f c = float_of_int c /. float_of_int base in
          Some (b.id, (f p, f m, f i))
      | _ -> None)
    Kernels.Registry.all

let geomean = function
  | [] -> 0.0
  | xs -> exp (sum log xs /. float_of_int (List.length xs))

(** Spearman correlation against the paper's bars; 0 below 3 kernels. *)
let rho rows paper pick =
  if List.length rows < 3 then 0.0
  else
    Harness.Experiments.spearman
      (List.map (fun (_, r) -> pick r) rows)
      (List.map (fun (id, _) -> List.assoc id paper) rows)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let usage =
  "rmtbench --workload (figgrid|campaign|lint|sanitize) --seed N --seconds S \
   --trace 0|1 [--setup-only] [--trace-out FILE]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and setup_only = ref false and trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the campaign's injection plans");
      ("--seconds", Arg.Set_float seconds, "S length of the timed section");
      ("--trace", Arg.Set_int trace, "0|1 user-facing run, or traced replay");
      ("--setup-only", Arg.Set setup_only, " stop after set-up");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace of the spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Jobs.names) then begin
    prerr_endline usage;
    exit 2
  end;
  (* ---- set-up: kernels, negative fixtures, warm-up ---- *)
  let t_setup = now () in
  let static_insts = build_kernels () in
  let jobs = Array.of_list (Jobs.workload !workload ~seed:!seed) in
  if !workload = "lint" then Jobs.build_fixtures ();
  (match (guarded jobs.(0).label jobs.(0).run).failure with
  | Some f ->
      Printf.eprintf "warm-up job failed: %s\n" f;
      exit 1
  | None -> ());
  let setup_s = now () -. t_setup in
  if !setup_only then begin
    (* run.py subtracts the loop's time from this process's wall *)
    let t0 = now () in
    for _ = 1 to 5 do calibrate () done;
    Printf.printf "calibration %.17g %.17g\n" (median !calibration) (now () -. t0);
    exit 0
  end;
  (* ---- timed section: one whole pass, then more while time remains ---- *)
  let spans = if !trace = 1 then Some (Spans.create ()) else None in
  let n = Array.length jobs in
  let runs = Array.make n [] in  (* executions per job, latest first *)
  for _ = 1 to 3 do calibrate () done;
  let t0 = now () in
  let k = ref 0 in
  (* every execution after a job's first must reproduce its digest and
     minor-heap allocation exactly *)
  let record index e =
    let e =
      match List.rev runs.(index) with
      | first :: _ when first.info.digest <> e.info.digest || first.minor <> e.minor ->
          { e with problems = (jobs.(index).label ^ ": repetition differs") :: e.problems }
      | _ -> e
    in
    runs.(index) <- e :: runs.(index)
  in
  while !k < n || now () -. t0 < !seconds do
    let index = !k mod n in
    if !k mod calibrate_every !workload = 0 then calibrate ();
    record index (execute ~spans ~index jobs.(index));
    incr k
  done;
  let timed_wall = now () -. t0 in
  for _ = 1 to 3 do calibrate () done;
  let speed = reference_nominal_s /. median !calibration in
  let at_nominal x = x *. speed in
  (* ---- determinism: repeat, untraced, the jobs the loop ran only once,
     within a tenth of the timed section (at least one job) ---- *)
  let budget = 0.1 *. !seconds and spent = ref 0.0 and repeated = ref 0 in
  Array.iteri
    (fun index es ->
      match es with
      | [ _ ] when !repeated = 0 || !spent < budget ->
          let e = execute ~spans:None ~index jobs.(index) in
          spent := !spent +. e.wall;
          incr repeated;
          record index e
      | _ -> ())
    runs;
  (* ---- aggregates ---- *)
  let all = List.concat_map List.rev (Array.to_list runs) in
  let firsts = Array.to_list (Array.map (fun es -> List.hd (List.rev es)) runs) in
  let infos = List.map (fun e -> e.info) firsts in
  let fastest f es = List.fold_left (fun a e -> if f e < f a then e else a) (List.hd es) es in
  let best_wall = Array.to_list (Array.map (fun es -> (fastest (fun e -> e.wall) es).wall) runs) in
  let attempted = List.length all in
  let nfailed = List.length (List.filter failed all) in
  let tail_s, tail_pct, tail_n = tail best_wall in
  let summaries = List.filter_map (fun (i : Jobs.info) -> Jobs.summary_of i.detail) infos in
  let issues = isum (fun (s : Run.summary) -> Jobs.issues s.counters) summaries in
  let digest =
    Digest.to_hex (Digest.string (String.concat "," (List.map (fun (i : Jobs.info) -> i.digest) infos)))
  in
  let rows = slowdown_rows infos in
  let gm pick = geomean (List.map (fun (_, r) -> pick r) rows) in
  let pl (x, _, _) = x and mi (_, x, _) = x and it (_, _, x) = x in
  let injected =
    List.filter_map
      (fun e ->
        match e.info.detail with
        | Jobs.Injected { summary; outcome } -> Some (e, summary, outcome)
        | _ -> None)
      firsts
  in
  let tally = Campaign.tally_create () in
  List.iter
    (fun (_, (s : Run.summary), o) ->
      Campaign.record tally o;
      if o = Campaign.O_detected then
        Option.iter (fun l -> tally.latencies <- l :: tally.latencies) s.detection_latency)
    injected;
  let latency_p50 = Option.value ~default:0 (Campaign.median_latency tally) in
  let lint_stats =
    List.filter_map
      (fun (i : Jobs.info) -> match i.detail with Jobs.Lint { stats; _ } -> stats | _ -> None)
      infos
  in
  let tv_exps = isum (fun (s : Gpu_tv.Simrel.stats) -> s.n_experiments) lint_stats in
  let tv_frac f = ratio (float_of_int (isum f lint_stats)) (float_of_int tv_exps) in
  let san_findings =
    isum
      (fun (i : Jobs.info) ->
        match i.detail with Jobs.Sanitized { findings; _ } -> findings | _ -> 0)
      infos
  in
  (* ---- report ---- *)
  Printf.printf "workload %s  seed %d  seconds %g  trace %d\n" !workload !seed
    !seconds !trace;
  Printf.printf
    "inputs: the registry's fixed built-in inputs; the seed drives only the \
     campaign's injection plans\n";
  Printf.printf "set-up (in process) %.3f s\n" setup_s;
  Printf.printf
    "%d jobs, %d executions in %.3f s; a job's host time is its fastest \
     execution\n"
    n (List.length all) timed_wall;
  Printf.printf
    "host speed: calibration loop %.4f s (median of %d) vs nominal %.3f s; \
     host times below are scaled by %.4f. Raw: jobs_per_s %.4f, job_p50_s \
     %.4f, job_tail_s %.4f\n"
    (median !calibration) (List.length !calibration) reference_nominal_s speed
    (float_of_int n /. sum Fun.id best_wall)
    (job_p50 best_wall) tail_s;
  Printf.printf "job_tail_s is p%.1f of %d jobs (10 jobs beyond it)\n" tail_pct
    tail_n;
  Printf.printf "fail_frac %g (%d of %d operations)\n"
    (ratio (float_of_int nfailed) (float_of_int attempted))
    nfailed attempted;
  if issues > 0 then
    Printf.printf "sim_issues_per_s %.1f 1/s (%d wave-instruction issues)\n"
      (ratio (float_of_int issues) (at_nominal (sum Fun.id best_wall)))
      issues;
  Printf.printf "digest %s\n" digest;
  Printf.printf
    "determinism: every job ran %d+ times (%d repeated after the loop); \
     %d executions failed\n"
    (Array.fold_left (fun a es -> min a (List.length es)) max_int runs)
    !repeated nfailed;
  if rows <> [] then begin
    Printf.printf "slowdown (RMT cycles / Original cycles), %d kernels:\n"
      (List.length rows);
    List.iter
      (fun (id, (a, b, c)) ->
        Printf.printf "  %-7s +LDS %.3f  -LDS %.3f  inter %.3f\n" id a b c)
      rows;
    Printf.printf "slowdown_gm.intra_plus_lds %.4f x\n" (gm pl);
    Printf.printf "slowdown_gm.intra_minus_lds %.4f x\n" (gm mi);
    Printf.printf "slowdown_gm.inter %.4f x\n" (gm it);
    Printf.printf "paper_rho.intra_plus_lds %.4f\n" (rho rows paper_fig2_plus_lds pl);
    Printf.printf "paper_rho.inter %.4f\n" (rho rows paper_fig6_inter it)
  end;
  if injected <> [] then begin
    Printf.printf "campaign: %d injections: %s\n" (List.length injected)
      (Campaign.tally_to_string tally);
    Printf.printf "detect_latency_p50_cycles %d cycles\n" latency_p50
  end;
  if lint_stats <> [] then
    Printf.printf "lint: %d subjects, %d experiments\n" (List.length lint_stats)
      tv_exps;
  List.iter
    (fun e ->
      let label = jobs.(e.index).label in
      Option.iter (fun f -> Printf.printf "FAIL %s: %s\n" label f) e.info.failure;
      List.iter (fun p -> Printf.printf "FAIL %s\n" p) e.problems)
    all;
  (* ---- metrics ---- *)
  let metrics =
    match spans with
    | None ->
        [
          ("jobs_per_s", float_of_int n /. at_nominal (sum Fun.id best_wall));
          ("job_p50_s", at_nominal (job_p50 best_wall));
          ("job_tail_s", at_nominal tail_s);
          ("peak_rss_mb", peak_rss_mb ());
        ]
    | Some _ ->
        (* host times: each job's fastest traced execution, whose layer
           times add up to its wall; counts: the first pass *)
        let best_traced =
          Array.to_list
            (Array.map
               (fun es -> fastest (fun e -> e.traced) (List.filter (fun e -> e.layers <> []) es))
               runs)
        in
        let layer name =
          at_nominal
            (sum (fun e -> Option.value ~default:0.0 (List.assoc_opt name e.layers))
               best_traced)
        in
        let total = Counters.create () in
        List.iter
          (fun (s : Run.summary) -> Counters.accumulate ~into:total s.counters)
          summaries;
        let c = Jobs.cfg in
        let pct a b = 100.0 *. ratio (float_of_int a) (float_of_int (a + b)) in
        let busy f = if total.cycles = 0 then 0.0 else f total in
        let fastest_of f = Array.to_list (Array.map (fun es -> f (fastest f es)) runs) in
        let launch_s = layer "gpu_sim.launch" +. layer "gpu_san.launch" in
        let plain_s = at_nominal (sum Fun.id best_wall) in
        let count o = List.length (List.filter (fun (_, _, x) -> x = o) injected) in
        let best_of pred =
          at_nominal
            (sum (fun (e, w) -> if pred e then w else 0.0) (List.combine firsts best_wall))
        in
        let sanitized e =
          match e.info.detail with Jobs.Sanitized _ -> true | _ -> false
        in
        let golden e =
          !workload = "campaign"
          && match e.info.detail with Jobs.Sim _ -> true | _ -> false
        in
        [
          ("gpu_sim.launch_s", layer "gpu_sim.launch");
          ("gpu_sim.create_s", layer "gpu_sim.create");
          ("gpu_sim.issues_per_launch_s", ratio (float_of_int issues) launch_s);
          ( "gpu_sim.minor_words_per_issue",
            ratio (sum (fun e -> e.launch_words) firsts) (float_of_int issues) );
          ("gpu_sim.issues", float_of_int issues);
          ("gpu_sim.cycles", float_of_int total.cycles);
          ("sim_issues_per_s", ratio (float_of_int issues) plain_s);
          ("sim.l1_hit_pct", pct total.l1_hits total.l1_misses);
          ("sim.l2_hit_pct", pct total.l2_hits total.l2_misses);
          ( "sim.valu_busy_pct",
            busy (Counters.valu_busy_pct ~n_cus:c.n_cus ~simds_per_cu:c.simds_per_cu) );
          ("sim.mem_unit_busy_pct", busy (Counters.mem_unit_busy_pct ~n_cus:c.n_cus));
          ("sim.lds_busy_pct", busy (Counters.lds_busy_pct ~n_cus:c.n_cus));
          ("sim.write_stalled_pct", busy (Counters.write_unit_stalled_pct ~n_cus:c.n_cus));
          ("sim.spin_iterations", float_of_int total.spin_iterations);
          ("rmt_core.transform_s", layer "rmt_core.transform");
          ("rmt_core.sor_check_s", layer "rmt_core.sor_check");
        ]
        @ List.map
            (fun (f, size) -> ("rmt_core.static_insts." ^ f, float_of_int size))
            static_insts
        @ [
            ("rmt_core.kernels_covered", float_of_int (List.length rows));
            ("slowdown_gm.intra_plus_lds", gm pl);
            ("slowdown_gm.intra_minus_lds", gm mi);
            ("slowdown_gm.inter", gm it);
            ("paper_rho.intra_plus_lds", rho rows paper_fig2_plus_lds pl);
            ("paper_rho.inter", rho rows paper_fig6_inter it);
            ("gpu_ir.analyses_s", layer "gpu_ir.analyses");
            ("kernels.prepare_s", layer "kernels.prepare");
            ("kernels.verify_s", layer "kernels.verify");
            ("gpu_power.model_s", layer "gpu_power.model");
            ("fault.injections", float_of_int (List.length injected));
            ( "fault.applied_frac",
              ratio
                (float_of_int
                   (List.length
                      (List.filter (fun (_, (s : Run.summary), _) -> s.inject_applied) injected)))
                (float_of_int (List.length injected)) );
            ("fault.detected", float_of_int (count Campaign.O_detected));
            ("fault.masked", float_of_int (count Campaign.O_masked));
            ("fault.sdc", float_of_int (count Campaign.O_sdc));
            ("fault.hang", float_of_int (count Campaign.O_hang));
            ( "fault.hang_s",
              best_of (fun e ->
                  match e.info.detail with
                  | Jobs.Injected { outcome = Campaign.O_hang; _ } -> true
                  | _ -> false) );
            ("fault.golden_s", best_of golden);
            ("detect_latency_p50_cycles", float_of_int latency_p50);
            ("gpu_san.launch_s", layer "gpu_san.launch");
            ( "gpu_san.overhead_x",
              ratio (best_of sanitized)
                (at_nominal
                   (sum Fun.id
                      (fastest_of (fun e -> if sanitized e then e.unobserved else 0.0)))) );
            ("gpu_san.findings", float_of_int san_findings);
            ("gpu_findings.render_s", layer "gpu_findings.render");
            ("gpu_tv.subject_s", layer "gpu_tv.subject");
            ("gpu_tv.validate_s", layer "gpu_tv.validate");
            ("gpu_tv.domains_s", layer "gpu_tv.domains");
            ("gpu_tv.costmodel_s", layer "gpu_tv.costmodel");
            ("gpu_tv.experiments", float_of_int tv_exps);
            ("gpu_tv.timeout_frac", tv_frac (fun s -> s.n_timeout));
            ("gpu_tv.not_exercised_frac", tv_frac (fun s -> s.n_not_exercised));
            ("harness.run_glue_s", layer "harness.run_glue");
            ("harness.jobs", float_of_int n);
            ("fail_frac", ratio (float_of_int nfailed) (float_of_int attempted));
            ( "bench.trace_overhead_frac",
              ratio (at_nominal (sum (fun e -> e.traced) best_traced) -. plain_s) plain_s );
            ("bench.calibration_s", median !calibration);
            ("gc.minor_words", sum (fun e -> e.minor) firsts);
            ("gc.promoted_words", sum (fun e -> e.promoted) firsts);
            ("gc.major_collections", float_of_int (isum (fun e -> e.majors) firsts));
          ]
  in
  (match (spans, !trace_out) with
  | Some sp, path when path <> "" ->
      Spans.write_chrome sp path;
      Printf.printf "spans: %s\n" path
  | _ -> ());
  let catalogue = if !trace = 1 then per_layer else end_to_end in
  let json =
    Printf.sprintf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      (nfailed = 0) attempted nfailed
      (String.concat ", "
         (List.map
            (fun (name, unit) ->
              let v =
                match List.assoc_opt name metrics with
                | Some v -> v
                | None -> failwith ("metric not computed: " ^ name)
              in
              Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
            catalogue))
  in
  print_endline json
