(** Experiment runner: execute a benchmark under an RMT variant and
    collect the measurements the figures need. Multi-pass benchmarks
    (BitS, FWT, FW) launch once per pass with counters summed and the
    Inter-Group group-id counter reset between passes. *)

type summary = {
  bench_id : string;
  variant : Rmt_core.Transform.variant;
  cycles : int;
  counters : Gpu_sim.Counters.t;
  windows : Gpu_sim.Counters.t array;
  outcome : Gpu_sim.Device.outcome;
  verified : bool;  (** device output matched the CPU reference *)
  occupancy : Gpu_sim.Occupancy.t;
  usage : Gpu_ir.Regpressure.usage;
  steps : int;
  inject_applied : bool;
  detection_latency : int option;
      (** flip-to-trap cycles when a fault was injected and detected *)
}

val outcome_name : Gpu_sim.Device.outcome -> string

val transformed_kernel :
  ?optimize:bool ->
  Kernels.Bench.t ->
  Rmt_core.Transform.variant ->
  nd:Gpu_sim.Geom.ndrange ->
  Gpu_ir.Types.kernel
(** Build and transform the benchmark's kernel; [optimize] additionally
    runs the {!Gpu_ir.Opt} pipeline (paper Sec. 6.6's register lever). *)

val observe :
  ?cfg:Gpu_sim.Config.t ->
  ?scale:int ->
  ?optimize:bool ->
  ?max_cycles:int ->
  ?usage_override:Gpu_ir.Regpressure.usage ->
  ?inject:Gpu_sim.Device.inject_plan ->
  ?trace:Gpu_trace.Sink.t ->
  ?profile:bool ->
  ?provenance:Gpu_prof.Provenance.t ->
  ?san:Gpu_san.Shadow.t ->
  Kernels.Bench.t ->
  Rmt_core.Transform.variant ->
  summary * Gpu_ir.Types.kernel * Gpu_prof.Collector.t option
(** The one observed launch: run the benchmark with any combination of
    observers, which compose without perturbing one another or the run.
    Returns the summary, the transformed kernel the device ran (site ids
    and finding sites index it) and, when [profile] is set, a per-site
    collector sized for that kernel and charged by every pass.

    [trace] receives the scheduler events of every launch, spliced into
    one stream by offsetting each pass by the cycles already simulated.
    [provenance] is filled by the pass in which [inject] lands. [san] is
    attached to the device before host preparation, so the shadow
    observes every allocation and host write. No observer perturbs
    timing, counters or outputs. *)

val run :
  ?cfg:Gpu_sim.Config.t ->
  ?scale:int ->
  ?optimize:bool ->
  ?max_cycles:int ->
  ?usage_override:Gpu_ir.Regpressure.usage ->
  ?inject:Gpu_sim.Device.inject_plan ->
  ?trace:Gpu_trace.Sink.t ->
  ?provenance:Gpu_prof.Provenance.t ->
  ?san:Gpu_san.Shadow.t ->
  Kernels.Bench.t ->
  Rmt_core.Transform.variant ->
  summary
(** {!observe}, keeping only the summary. *)

val run_sanitized :
  ?cfg:Gpu_sim.Config.t ->
  ?scale:int ->
  ?optimize:bool ->
  ?max_cycles:int ->
  Kernels.Bench.t ->
  Rmt_core.Transform.variant ->
  summary * Gpu_ir.Types.kernel * Gpu_san.Shadow.t
(** {!observe} with a fresh sanitizer shadow; returns the summary, the
    transformed kernel (to resolve finding sites) and the shadow. *)

val run_naive_duplication :
  ?cfg:Gpu_sim.Config.t -> ?scale:int -> Kernels.Bench.t -> summary
(** The paper's Section 3.4 baseline: launch everything twice; the host
    checks afterwards. Only timing is modelled. *)

val slowdown : base:summary -> summary -> float
(** Cycles of the second run over cycles of [base].
    @raise Invalid_argument if [base] ran for 0 cycles (a broken run —
    a ratio against it would silently report near-free slowdowns). *)
