(** Perf-regression diff gate.

    Compares two [BENCH_<rev>.json] perf-trajectory files (the documents
    {!Metrics.bench_json} emits) and reports regressions:

    - per-experiment wall-clock, gated by a ratio threshold — noisy
      across machines, so the CI gate uses a generous tolerance;
    - per-run simulated cost counters (cycles, unit-busy cycles, write
      stalls, spin iterations), matched by run label and gated by a
      relative-increase threshold — these are deterministic, so a tight
      tolerance catches real simulator or kernel-shape changes.

    The comparison is a library function returning structured findings
    so tests can exercise the gate without subprocesses; the CLI
    ([rmtgpu perfdiff OLD NEW]) renders the findings and exits non-zero
    when any regression crosses a threshold. *)

module Json = Gpu_trace.Json

type thresholds = {
  wall_ratio : float;
      (** flag an experiment when [new_wall > wall_ratio * old_wall] *)
  counter_rel : float;
      (** flag a counter when it grew by more than this fraction *)
}

let default_thresholds = { wall_ratio = 1.5; counter_rel = 0.02 }

type severity = Regression | Info

type finding = {
  severity : severity;
  subject : string;  (** experiment name or run label *)
  metric : string;  (** e.g. ["wall_s"] or ["counters.cycles"] *)
  old_value : float;
  new_value : float;
  detail : string;
}

(** The simulated cost counters the gate watches. Counts of work done
    (instructions, lane ops) are shape descriptors, not costs; the gate
    watches the fields where regressions show up as wasted cycles. *)
let gated_counters =
  [
    "cycles";
    "valu_busy";
    "salu_busy";
    "mem_unit_busy";
    "lds_busy";
    "write_stalled";
    "spin_iterations";
  ]

(* ------------------------------------------------------------------ *)
(* Document access                                                     *)
(* ------------------------------------------------------------------ *)

exception Bad_file of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad_file s)) fmt

let parse_file path =
  let text =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error e -> fail "%s: %s" path e
  in
  try Json.parse text
  with Json.Parse_error e -> fail "%s: invalid JSON: %s" path e

let member_exn path key j =
  match Json.member key j with
  | Some v -> v
  | None -> fail "%s: missing field %S" path key

let to_num path key = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> fail "%s: field %S is not a number" path key

let to_str path key = function
  | Json.Str s -> s
  | _ -> fail "%s: field %S is not a string" path key

(* Entries are matched by name, so a repeated one would let the gate
   silently compare only its first copy. *)
let unique path what entries =
  let rec go seen = function
    | [] -> entries
    | (name, _) :: rest ->
        if List.mem name seen then fail "%s: duplicate %s %S" path what name
        else go (name :: seen) rest
  in
  go [] entries

(** [(name, wall_s)] per experiment. *)
let experiments path doc =
  match Json.to_list (member_exn path "experiments" doc) with
  | None -> fail "%s: \"experiments\" is not a list" path
  | Some xs ->
      List.map
        (fun e ->
          ( to_str path "name" (member_exn path "name" e),
            to_num path "wall_s" (member_exn path "wall_s" e) ))
        xs
      |> unique path "experiment name"

(** [(label, counter assoc)] per run, keeping only the gated counters. *)
let runs path doc =
  match Json.to_list (member_exn path "runs" doc) with
  | None -> fail "%s: \"runs\" is not a list" path
  | Some xs ->
      List.map
        (fun r ->
          let label = to_str path "label" (member_exn path "label" r) in
          let counters = member_exn path "counters" r in
          let fields =
            List.filter_map
              (fun key ->
                match Json.member key counters with
                | Some v -> Some (key, to_num path key v)
                | None -> None)
              gated_counters
          in
          (label, fields))
        xs
      |> unique path "run label"

let rev path doc =
  match Json.member "rev" doc with Some (Json.Str r) -> r | _ -> path

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let pct_change o n = if o = 0.0 then 0.0 else 100.0 *. (n -. o) /. o

(** Diff two parsed trajectory documents. Findings are ordered:
    regressions first, then informational notes (new/vanished
    experiments and runs, improvements are not reported). *)
let diff ?(thresholds = default_thresholds) ~old_path ~new_path old_doc
    new_doc : finding list =
  let regressions = ref [] and infos = ref [] in
  let reg f = regressions := f :: !regressions in
  let info f = infos := f :: !infos in
  (* wall-clock per experiment *)
  let old_exps = experiments old_path old_doc in
  let new_exps = experiments new_path new_doc in
  List.iter
    (fun (name, nw) ->
      match List.assoc_opt name old_exps with
      | None ->
          info
            {
              severity = Info;
              subject = name;
              metric = "wall_s";
              old_value = 0.0;
              new_value = nw;
              detail = "experiment not present in old trajectory";
            }
      | Some ow ->
          if ow > 0.0 && nw > thresholds.wall_ratio *. ow then
            reg
              {
                severity = Regression;
                subject = name;
                metric = "wall_s";
                old_value = ow;
                new_value = nw;
                detail =
                  Printf.sprintf "%.3fs -> %.3fs (%.1fx > %.2fx tolerance)"
                    ow nw (nw /. ow) thresholds.wall_ratio;
              })
    new_exps;
  List.iter
    (fun (name, ow) ->
      if List.assoc_opt name new_exps = None then
        info
          {
            severity = Info;
            subject = name;
            metric = "wall_s";
            old_value = ow;
            new_value = 0.0;
            detail = "experiment vanished from new trajectory";
          })
    old_exps;
  (* simulated counters per run label *)
  let old_runs = runs old_path old_doc in
  let new_runs = runs new_path new_doc in
  List.iter
    (fun (label, nfields) ->
      match List.assoc_opt label old_runs with
      | None ->
          info
            {
              severity = Info;
              subject = label;
              metric = "counters";
              old_value = 0.0;
              new_value = 0.0;
              detail = "run not present in old trajectory";
            }
      | Some ofields ->
          List.iter
            (fun (key, nv) ->
              match List.assoc_opt key ofields with
              | None -> ()
              | Some ov ->
                  if nv > ov +. (thresholds.counter_rel *. Float.abs ov)
                     && nv -. ov >= 1.0
                  then
                    reg
                      {
                        severity = Regression;
                        subject = label;
                        metric = "counters." ^ key;
                        old_value = ov;
                        new_value = nv;
                        detail =
                          Printf.sprintf "%.0f -> %.0f (+%.2f%% > %.2f%%)" ov
                            nv (pct_change ov nv)
                            (100.0 *. thresholds.counter_rel);
                      })
            nfields)
    new_runs;
  List.iter
    (fun (label, _) ->
      if List.assoc_opt label new_runs = None then
        info
          {
            severity = Info;
            subject = label;
            metric = "counters";
            old_value = 0.0;
            new_value = 0.0;
            detail = "run vanished from new trajectory";
          })
    old_runs;
  List.rev !regressions @ List.rev !infos

(** Diff two trajectory files on disk.
    @raise Bad_file on unreadable or malformed input. *)
let diff_files ?thresholds ~old_path ~new_path () : finding list =
  let old_doc = parse_file old_path and new_doc = parse_file new_path in
  diff ?thresholds ~old_path ~new_path old_doc new_doc

let has_regression findings =
  List.exists (fun f -> f.severity = Regression) findings

let finding_to_string f =
  Printf.sprintf "%s %s %s: %s"
    (match f.severity with Regression -> "REGRESSION" | Info -> "info")
    f.subject f.metric f.detail

(** Human-readable report; header names both revisions. *)
let report ?thresholds ~old_path ~new_path () : string * bool =
  let old_doc = parse_file old_path and new_doc = parse_file new_path in
  let findings = diff ?thresholds ~old_path ~new_path old_doc new_doc in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "perfdiff: %s (%s) -> %s (%s)\n" old_path
       (rev old_path old_doc) new_path (rev new_path new_doc));
  if findings = [] then Buffer.add_string buf "no differences beyond thresholds\n"
  else
    List.iter
      (fun f ->
        Buffer.add_string buf (finding_to_string f);
        Buffer.add_char buf '\n')
      findings;
  let nreg = List.length (List.filter (fun f -> f.severity = Regression) findings) in
  Buffer.add_string buf
    (if nreg = 0 then "gate: PASS\n"
     else Printf.sprintf "gate: FAIL (%d regression%s)\n" nreg
         (if nreg = 1 then "" else "s"));
  (Buffer.contents buf, nreg > 0)
