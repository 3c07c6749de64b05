(** Perf-regression diff gate over two [BENCH_<rev>.json] trajectory
    files: per-experiment wall-clock (ratio threshold, generous — noisy
    across machines) and per-run simulated cost counters matched by run
    label (relative threshold, tight — deterministic). *)

type thresholds = {
  wall_ratio : float;
      (** flag an experiment when [new_wall > wall_ratio * old_wall] *)
  counter_rel : float;
      (** flag a gated counter when it grew by more than this fraction
          (and by at least one whole count) *)
}

val default_thresholds : thresholds
(** [wall_ratio = 1.5], [counter_rel = 0.02]. *)

type severity = Regression | Info

type finding = {
  severity : severity;
  subject : string;  (** experiment name or run label *)
  metric : string;  (** e.g. ["wall_s"], ["counters.cycles"] *)
  old_value : float;
  new_value : float;
  detail : string;
}

val gated_counters : string list
(** The cost counters the gate watches (cycles, unit-busy cycles, write
    stalls, spin iterations). *)

exception Bad_file of string
(** Unreadable or malformed trajectory file, including one that repeats
    a run label or an experiment name. *)

val diff :
  ?thresholds:thresholds ->
  old_path:string ->
  new_path:string ->
  Gpu_trace.Json.t ->
  Gpu_trace.Json.t ->
  finding list
(** Diff two parsed trajectory documents ([old_path]/[new_path] label
    error messages only). Regressions come first, then info notes.
    @raise Bad_file on a malformed document. *)

val diff_files :
  ?thresholds:thresholds ->
  old_path:string ->
  new_path:string ->
  unit ->
  finding list
(** @raise Bad_file on unreadable or malformed input. *)

val has_regression : finding list -> bool
val finding_to_string : finding -> string

val report :
  ?thresholds:thresholds ->
  old_path:string ->
  new_path:string ->
  unit ->
  string * bool
(** Render the full human-readable report; the flag is [true] when any
    regression crossed a threshold (the CLI exits non-zero on it). *)
