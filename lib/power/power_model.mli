(** Activity-based power model reproducing the paper's Figure 5
    methodology: per-event energies integrated over fixed monitor
    windows, plus a static/idle floor. Calibrated once, globally, so
    the original SDK workloads land in the paper's 60–74 W band. *)

type coefficients = {
  static_w : float;
  idle_cu_w : float;
  ej_valu_lane : float;  (** nanojoules per event *)
  ej_salu : float;
  ej_lds_lane : float;
  ej_l1_line : float;
  ej_l2_line : float;
  ej_dram_byte : float;
  ej_issue : float;
}

val default : coefficients

val window_energy : ?c:coefficients -> Gpu_sim.Counters.t -> float
(** Joules attributed to the events of one counter window. *)

val window_power :
  ?c:coefficients -> cfg:Gpu_sim.Config.t -> Gpu_sim.Counters.t -> float
(** Average watts over one counter window. *)

type report = {
  average_w : float;
  peak_w : float;
  samples : float array;  (** per-window watts — the "monitor trace" *)
}

val report :
  ?c:coefficients ->
  cfg:Gpu_sim.Config.t ->
  windows:Gpu_sim.Counters.t array ->
  fallback:Gpu_sim.Counters.t ->
  unit ->
  report
(** Runs shorter than one window yield a single sample over [fallback]. *)
