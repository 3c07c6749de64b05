(** Experiment runner: execute a benchmark under a given RMT variant and
    collect the measurements the figures need (total cycles, summed
    counters, power windows, verification verdict).

    Multi-pass benchmarks (BitonicSort, FastWalshTransform,
    FloydWarshall) launch their kernel once per pass, exactly as their
    SDK hosts do; cycles and counters are summed over the passes and the
    Inter-Group group-id counter is reset before each pass. *)

module Device = Gpu_sim.Device
module Counters = Gpu_sim.Counters
module Transform = Rmt_core.Transform

type summary = {
  bench_id : string;
  variant : Transform.variant;
  cycles : int;
  counters : Counters.t;
  windows : Counters.t array;
  outcome : Device.outcome;
  verified : bool;
  occupancy : Gpu_sim.Occupancy.t;
  usage : Gpu_ir.Regpressure.usage;
  steps : int;
  inject_applied : bool;
  detection_latency : int option;
      (** cycles between fault landing and the trap firing, when both
          happened (the containment window) *)
}

let outcome_name = function
  | Device.Finished -> "finished"
  | Device.Detected -> "detected"
  | Device.Crashed m -> "crashed: " ^ m
  | Device.Hung -> "hung"

(** Transform the benchmark's kernel for [variant], given the launch's
    original work-group geometry. [optimize] additionally runs the
    {!Gpu_ir.Opt} cleanup pipeline over the transformed kernel (the
    "more efficient register allocation" direction of paper Sec. 6.6). *)
let transformed_kernel ?(optimize = false) (bench : Kernels.Bench.t) variant
    ~(nd : Gpu_sim.Geom.ndrange) =
  let k = bench.make_kernel () in
  let k = Transform.apply variant ~local_items:(Gpu_sim.Geom.group_items nd) k in
  if optimize then Gpu_ir.Opt.optimize k else k

(** Run [bench] under [variant].

    @param scale problem-size multiplier (1 = paper-scaled default)
    @param usage_override resource inflation for the component analysis
    @param inject a fault plan, interpreted against cumulative cycles
    @param trace a scheduler-event sink; multi-pass launches are spliced
    into one monotonic stream by offsetting each pass's events by the
    cycles already simulated
    @param profile the per-site collector for the transformed kernel
    (given that kernel); every pass charges into the same collector
    (passes all run the same kernel, hence the same site numbering)
    @param provenance a fault-propagation record, filled by the pass in
    which [inject] lands
    @param san a sanitizer shadow, attached before host preparation so it
    observes every allocation and host write; all passes check into the
    same shadow (the sanitizer never perturbs timing or outputs)

    Returns the summary and the transformed kernel the device ran. *)
let execute ?(cfg = Gpu_sim.Config.default) ?(scale = 1) ?(optimize = false)
    ?window_cycles ?max_cycles ?usage_override ?inject ?trace
    ?(profile = fun _ -> None) ?provenance ?san (bench : Kernels.Bench.t)
    (variant : Transform.variant) : summary * Gpu_ir.Types.kernel =
  let dev = Device.create cfg in
  Device.set_san dev san;
  let prep = bench.prepare dev ~scale in
  let nd0 =
    match prep.steps with
    | s :: _ -> s.Kernels.Bench.nd
    | [] -> invalid_arg "benchmark produced no launch steps"
  in
  let kernel = transformed_kernel ~optimize bench variant ~nd:nd0 in
  let profile = profile kernel in
  let extras = Transform.make_extras variant dev ~nd:nd0 in
  let total = Counters.create () in
  let windows = ref [] in
  let cycles = ref 0 in
  let outcome = ref Device.Finished in
  let occupancy = ref None in
  let usage = ref None in
  let injected = ref false in
  let latency = ref None in
  let inject_remaining = ref inject in
  (try
     List.iter
       (fun (step : Kernels.Bench.step) ->
         extras.Transform.reset ();
         let step_inject =
           match !inject_remaining with
           | Some (plan : Device.inject_plan) when not !injected ->
               Some { plan with Device.at_cycle = max 0 (plan.Device.at_cycle - !cycles) }
           | _ -> None
         in
         let step_trace =
           match trace with
           | Some sink -> Some (Gpu_trace.Sink.with_offset !cycles sink)
           | None -> None
         in
         let opts =
           {
             Device.default_opts with
             Device.usage_override;
             window_cycles;
             max_cycles;
             inject = step_inject;
             trace = step_trace;
             profile;
             provenance;
           }
         in
         let nd = Transform.map_ndrange variant step.Kernels.Bench.nd in
         let r =
           Device.launch ~opts dev kernel ~nd
             ~args:(step.Kernels.Bench.args @ extras.Transform.ex_args)
         in
         if r.Device.inject_applied then injected := true;
         (match (r.Device.injected_at, r.Device.detected_at) with
         | Some i, Some d when d >= i -> latency := Some (d - i)
         | _ -> ());
         cycles := !cycles + r.Device.cycles;
         Counters.accumulate ~into:total r.Device.counters;
         windows := List.rev_append (Array.to_list r.Device.windows) !windows;
         occupancy := Some r.Device.occupancy;
         usage := Some r.Device.usage;
         match r.Device.outcome with
         | Device.Finished -> ()
         | (Device.Detected | Device.Crashed _ | Device.Hung) as bad ->
             outcome := bad;
             raise Exit)
       prep.steps
   with Exit -> ());
  total.Counters.cycles <- !cycles;
  let verified =
    match !outcome with Device.Finished -> prep.verify () | _ -> false
  in
  ( {
      bench_id = bench.id;
      variant;
      cycles = !cycles;
      counters = total;
      windows = Array.of_list (List.rev !windows);
      outcome = !outcome;
      verified;
      occupancy =
        (match !occupancy with
        | Some o -> o
        | None -> failwith "no launch completed");
      usage = (match !usage with Some u -> u | None -> failwith "no launch");
      steps = List.length prep.steps;
      inject_applied = !injected;
      detection_latency = !latency;
    },
    kernel )

let run ?cfg ?scale ?optimize ?window_cycles ?max_cycles ?usage_override
    ?inject ?trace ?profile ?provenance ?san bench variant =
  fst
    (execute ?cfg ?scale ?optimize ?window_cycles ?max_cycles ?usage_override
       ?inject ?trace ~profile:(fun _ -> profile) ?provenance ?san bench
       variant)

(** Run [bench] under [variant] with a per-site profile collector sized
    for the transformed kernel. Returns the summary, the transformed
    kernel the device executed (the listing the site ids index) and the
    filled collector — everything the annotated-profile renderer needs. *)
let run_profiled ?cfg ?scale ?optimize ?window_cycles ?max_cycles
    (bench : Kernels.Bench.t) (variant : Transform.variant) :
    summary * Gpu_ir.Types.kernel * Gpu_prof.Collector.t =
  let collector = ref None in
  let profile kernel =
    let c = Gpu_prof.Collector.create ~nsites:(Gpu_ir.Site.count kernel) in
    collector := Some c;
    Some c
  in
  let s, kernel =
    execute ?cfg ?scale ?optimize ?window_cycles ?max_cycles ~profile bench
      variant
  in
  (s, kernel, Option.get !collector)

(** Run [bench] under [variant] with a fresh sanitizer shadow. Returns
    the summary, the transformed kernel (for resolving finding site ids
    to instructions) and the shadow holding any findings. *)
let run_sanitized ?cfg ?scale ?optimize ?window_cycles ?max_cycles
    (bench : Kernels.Bench.t) (variant : Transform.variant) :
    summary * Gpu_ir.Types.kernel * Gpu_san.Shadow.t =
  let shadow = Gpu_san.Shadow.create () in
  let s, kernel =
    execute ?cfg ?scale ?optimize ?window_cycles ?max_cycles ~san:shadow bench
      variant
  in
  (s, kernel, shadow)

(** Slowdown of [v] relative to [base] (runtimes in cycles). A
    zero-cycle baseline means the base run never executed — report the
    broken run instead of a quietly absurd ratio. *)
let slowdown ~(base : summary) (v : summary) =
  if base.cycles <= 0 then
    invalid_arg
      (Printf.sprintf
         "Run.slowdown: baseline %s/%s ran for %d cycles (broken run)"
         base.bench_id
         (Transform.name base.variant)
         base.cycles);
  float_of_int v.cycles /. float_of_int base.cycles

(** Naive full duplication (paper Section 3.4): the host launches the
    whole kernel (sequence) twice and compares outputs itself. The
    second pass runs against warm caches, so the cost can land slightly
    below 2x; the trade-off is host-side checking latency, doubled
    output memory, and a detection point only after the kernel finishes
    (both copies must re-execute on mismatch). Only timing is modelled:
    the duplicate pass reuses the same buffers, which matches the
    memory behaviour of a duplicated launch without teaching the
    harness which arguments are outputs. *)
let run_naive_duplication ?(cfg = Gpu_sim.Config.default) ?(scale = 1)
    (bench : Kernels.Bench.t) : summary =
  let dev = Device.create cfg in
  let prep = bench.prepare dev ~scale in
  let nd0 =
    match prep.steps with
    | s :: _ -> s.Kernels.Bench.nd
    | [] -> invalid_arg "benchmark produced no launch steps"
  in
  let kernel = transformed_kernel bench Transform.Original ~nd:nd0 in
  let total = Counters.create () in
  let cycles = ref 0 in
  let occupancy = ref None in
  let usage = ref None in
  for _pass = 1 to 2 do
    List.iter
      (fun (step : Kernels.Bench.step) ->
        let r =
          Device.launch dev kernel ~nd:step.Kernels.Bench.nd
            ~args:step.Kernels.Bench.args
        in
        cycles := !cycles + r.Device.cycles;
        Counters.accumulate ~into:total r.Device.counters;
        occupancy := Some r.Device.occupancy;
        usage := Some r.Device.usage)
      prep.steps
  done;
  total.Counters.cycles <- !cycles;
  {
    bench_id = bench.id;
    variant = Transform.Original;
    cycles = !cycles;
    counters = total;
    windows = [||];
    outcome = Device.Finished;
    verified = true;
    occupancy = (match !occupancy with Some o -> o | None -> assert false);
    usage = (match !usage with Some u -> u | None -> assert false);
    steps = 2 * List.length prep.steps;
    inject_applied = false;
    detection_latency = None;
  }
