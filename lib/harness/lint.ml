(** [rmtgpu lint]: the one verification front end of the RMT passes.

    Per target it produces one entry whose findings, in the shared
    {!Gpu_findings.Findings} vocabulary, come from three analyses:

    - the {e static SoR contract} ({!Rmt_core.Sor_check}): every exiting
      store of the transformed kernel is branch-confined, compared
      against the twin's copy received over the communication channel,
      and — Inter-Group — gated by the hand-off flag protocol;
    - the {e sanitized run} ({!Run.run_sanitized}): a registry
      benchmark's real workload runs to completion under
      {!Gpu_san.Shadow}, which flags data races, uninitialized reads and
      out-of-bounds accesses; a run that does not finish verified is
      itself a finding;
    - {e translation validation} ({!lint_target}): the {!Gpu_tv.Simrel}
      simulation relation — original vs transformed under the pairing
      map, plus one re-execution per sampled fault-injection experiment
      — with every violation an error finding naming the offending
      store. Two static reports ride along, rendered and embedded in the
      JSON artifact: the {e protection-domain report}
      ({!Gpu_tv.Domains}, cross-checked against the declared
      {!Rmt_core.Sor} matrix — a disagreement is itself a finding) and
      the {e cost prediction} ({!Gpu_tv.Costmodel}).

    The baseline has no redundancy to validate, so it gets the static
    contract and the sanitized run only. The sanitized run needs a
    benchmark harness (arguments, reference output): a freestanding
    [.rgk] kernel gets no dynamic check, and neither does TMR, whose
    voting exchange requires a whole tripled work-group to fit in one
    wavefront (3 × items ≤ 64) while every registry workload uses groups
    of 64 or more — the TMR property tests in [test/test_tmr.ml] and the
    sanitized synthetic kernels in [test/test_san.ml] cover its dynamic
    side. Each such skip carries a structured {!skip_kind}. *)

module Simrel = Gpu_tv.Simrel
module Domains = Gpu_tv.Domains
module Costmodel = Gpu_tv.Costmodel
module Findings = Gpu_findings.Findings
module Json = Gpu_trace.Json
module Sor_check = Rmt_core.Sor_check

(** The translation-validation matrix: every RMT flavor with a pairing
    to validate (the baseline has no redundancy to lint). *)
let standard_targets : (string * Simrel.target) list =
  [
    ("intra+lds", Simrel.V Rmt_core.Transform.intra_plus_lds);
    ("intra-lds", Simrel.V Rmt_core.Transform.intra_minus_lds);
    ("intra+fast", Simrel.V Rmt_core.Transform.intra_plus_lds_fast);
    ("inter", Simrel.V Rmt_core.Transform.inter_group);
    ("tmr", Simrel.Tmr);
  ]

(** The verification matrix: the baseline plus every RMT flavor. *)
let all_targets : (string * Simrel.target) list =
  ("baseline", Simrel.V Rmt_core.Transform.Original) :: standard_targets

let target_of_string s = List.assoc_opt (String.lowercase_ascii s) all_targets

(* Sampling cap per subject: experiments are enumerated replica-major
   and sampled by stride, so every replica stays represented. The cap
   keeps a 16-kernel × 5-target CI sweep in seconds; [--full] lifts it. *)
let default_max_experiments = 150

(** Why an entry's dynamic check did not run — a machine-readable
    classification next to the human note, so CI consumers can assert
    on the skip (e.g. that TMR is static-only by design, not by
    accident) without parsing prose. *)
type skip_kind =
  | Sk_static_only
      (** by design: the target cannot run the real workload (TMR's
          tripled group exceeds the wavefront) *)
  | Sk_no_harness  (** freestanding kernel: no argument/reference harness *)
  | Sk_not_applicable  (** the transform rejected this kernel *)

let skip_kind_name = function
  | Sk_static_only -> "static_only"
  | Sk_no_harness -> "no_harness"
  | Sk_not_applicable -> "not_applicable"

type entry = {
  l_label : string;
  l_kernel : Gpu_ir.Types.kernel option;
      (** the kernel the static contract was checked on; [None] on skip *)
  l_findings : Findings.finding list;
  l_stats : Simrel.stats option;  (** [None]: not translation-validated *)
  l_domains : Domains.report option;
  l_cost : Costmodel.prediction option;
  l_run : Run.summary option;
      (** the sanitized run; [None]: dynamic check skipped *)
  l_skip : string option;  (** transform not applicable to this kernel *)
  l_skip_kind : skip_kind option;
}

type report = { l_name : string; l_entries : entry list }

(* An entry with no findings and no analysis attached yet. *)
let bare_entry label kernel =
  {
    l_label = label;
    l_kernel = kernel;
    l_findings = [];
    l_stats = None;
    l_domains = None;
    l_cost = None;
    l_run = None;
    l_skip = None;
    l_skip_kind = None;
  }

let entry_clean e = Findings.clean e.l_findings
let clean r = List.for_all entry_clean r.l_entries

let category_of_violation = function
  | Simrel.Spurious_trap _ -> "tv-spurious-trap"
  | Simrel.Not_refined _ -> "tv-not-refined"
  | Simrel.Run_failed _ -> "tv-run-failed"
  | Simrel.Escaped _ -> "tv-escape"

let violation_findings (subj : Simrel.subject) (res : Simrel.result) :
    Findings.finding list =
  let sl = Gpu_ir.Slice.of_kernel subj.Simrel.s_transformed in
  let insts = sl.Gpu_ir.Slice.insts in
  List.map
    (fun v ->
      let site = Simrel.violation_store_site v in
      let site, inst =
        if site >= 0 && site < Array.length insts then
          (Some site, Some (Gpu_ir.Pp.string_of_inst insts.(site)))
        else (None, None)
      in
      Findings.make ~category:(category_of_violation v) ?site ?inst
        (Simrel.describe_violation insts v))
    res.Simrel.res_violations

let lint_target ?(local_items = Simrel.default_local_items)
    ?(max_experiments = default_max_experiments) ?step_limit
    ?(cfg = Gpu_sim.Config.default) ~(k0 : Gpu_ir.Types.kernel)
    ((label, target) : string * Simrel.target) : entry =
  match Simrel.subject ~local_items target k0 with
  | exception Rmt_core.Intra_group.Unsupported msg ->
      {
        (bare_entry label None) with
        l_skip = Some ("transform not applicable: " ^ msg);
        l_skip_kind = Some Sk_not_applicable;
      }
  | subj ->
      let res = Simrel.validate ~max_experiments ?step_limit subj in
      let domains =
        Domains.derive ~target ~original:subj.Simrel.s_original
          ~transformed:subj.Simrel.s_transformed
      in
      let domain_findings =
        match Domains.sor_flavor_of_target target with
        | None -> []
        | Some flavor ->
            List.map
              (fun s ->
                Findings.make ~category:"domains"
                  (Printf.sprintf
                     "derived protection domain disagrees with the declared \
                      SoR matrix on %s"
                     (Rmt_core.Sor.structure_name s)))
              (Domains.crosscheck_sor domains flavor)
      in
      let cost = Costmodel.predict ~cfg ~local_items target k0 in
      {
        (bare_entry label (Some subj.Simrel.s_transformed)) with
        l_findings = violation_findings subj res @ domain_findings;
        l_stats = Some res.Simrel.res_stats;
        l_domains = Some domains;
        l_cost = Some cost;
      }

let sor_findings (vs : Sor_check.violation list) =
  List.map
    (fun (v : Sor_check.violation) ->
      Findings.make ~category:"sor" ~site:v.v_site ~inst:v.v_inst
        ~space:
          (match v.v_space with
          | Gpu_ir.Types.Global -> "global"
          | Gpu_ir.Types.Local -> "local")
        v.v_reason)
    vs

(* A sanitized run that did not finish verified is itself a finding,
   independent of shadow state. *)
let run_findings (s : Run.summary) =
  let problem =
    match s.outcome with
    | Gpu_sim.Device.Finished when s.verified -> None
    | Gpu_sim.Device.Finished ->
        Some "run finished but output verification failed"
    | o -> Some ("run did not finish: " ^ Run.outcome_name o)
  in
  Option.to_list (Option.map (Findings.make ~category:"run") problem)

(** One target of the verification matrix: the translation validation
    of {!lint_target} (every target but the baseline), the static SoR
    contract, and — when [bench] supplies a harness and the target is
    not TMR — the sanitized run of the benchmark's workload. *)
let verify_target ?local_items ?max_experiments ?step_limit
    ?(cfg = Gpu_sim.Config.default) ?bench ~k0
    ((label, target) : string * Simrel.target) : entry =
  let e =
    match target with
    | Simrel.V Rmt_core.Transform.Original -> bare_entry label (Some k0)
    | _ ->
        lint_target ?local_items ?max_experiments ?step_limit ~cfg ~k0
          (label, target)
  in
  if e.l_skip <> None then e
  else
    let kernel, dynamic, run, skip_kind =
      match (bench, target) with
      | Some b, Simrel.V v ->
          let s, kernel, shadow = Run.run_sanitized ~cfg b v in
          ( kernel,
            run_findings s @ Gpu_san.Report.to_findings ~kernel shadow,
            Some s,
            None )
      | _ ->
          let kind =
            if target = Simrel.Tmr then Sk_static_only else Sk_no_harness
          in
          (Option.get e.l_kernel, [], None, Some kind)
    in
    let static =
      sor_findings
        (Sor_check.check (Simrel.facts target).Simrel.tf_contract kernel)
    in
    {
      e with
      l_kernel = Some kernel;
      l_findings = static @ dynamic @ e.l_findings;
      l_run = run;
      l_skip_kind = skip_kind;
    }

(** Verify a kernel (e.g. a parsed [.rgk] file) against [targets]
    (default: {!all_targets}). Only a [bench] supplies the host harness
    the sanitized run needs. *)
let lint_kernel ?local_items ?max_experiments ?step_limit ?cfg ?bench
    ?(targets = all_targets) ~name (k0 : Gpu_ir.Types.kernel) : report =
  {
    l_name = name;
    l_entries =
      List.map
        (verify_target ?local_items ?max_experiments ?step_limit ?cfg ?bench
           ~k0)
        targets;
  }

(** Verify a registry benchmark's kernel. The validator supplies its own
    tiny synthetic launch (it must execute the kernel hundreds of
    times); the sanitized run uses the benchmark's host harness. *)
let lint_bench ?local_items ?max_experiments ?step_limit ?cfg ?targets
    (bench : Kernels.Bench.t) : report =
  lint_kernel ?local_items ?max_experiments ?step_limit ?cfg ?targets ~bench
    ~name:bench.id (bench.make_kernel ())

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let stats_line (s : Simrel.stats) =
  Printf.sprintf
    "%d experiments: %d masked, %d detected, %d timeout, %d degraded, %d \
     not-exercised, %d undetected"
    s.Simrel.n_experiments s.Simrel.n_masked s.Simrel.n_detected
    s.Simrel.n_timeout s.Simrel.n_degraded s.Simrel.n_not_exercised
    s.Simrel.n_undetected

let entry_to_string e =
  let buf = Buffer.create 256 in
  let verdict =
    if e.l_skip <> None then "skip" else if entry_clean e then "ok" else "FAIL"
  in
  Buffer.add_string buf (Printf.sprintf "  %-10s %s\n" e.l_label verdict);
  (match e.l_stats with
  | Some s -> Buffer.add_string buf ("    " ^ stats_line s ^ "\n")
  | None -> ());
  (match e.l_cost with
  | Some c -> Buffer.add_string buf ("    " ^ Costmodel.to_string c ^ "\n")
  | None -> ());
  Buffer.add_string buf (Findings.list_to_string ~indent:"    " e.l_findings);
  let note =
    match (e.l_skip, e.l_skip_kind) with
    | Some r, _ -> Some r
    | None, Some Sk_static_only ->
        Some
          "dynamic check skipped: TMR requires 3*work-group <= 64 lanes and \
           every registry workload uses >= 64-item groups"
    | None, Some Sk_no_harness ->
        Some
          "dynamic check skipped: freestanding kernel has no \
           argument/reference harness"
    | None, (Some Sk_not_applicable | None) -> None
  in
  Option.iter
    (fun r -> Buffer.add_string buf (Printf.sprintf "    note: %s\n" r))
    note;
  Buffer.contents buf

let to_string r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%s: %s\n" r.l_name
       (if clean r then "clean" else "FINDINGS"));
  List.iter (fun e -> Buffer.add_string buf (entry_to_string e)) r.l_entries;
  (* the Table 2/3 matrix, once over all linted targets *)
  let domains = List.filter_map (fun e -> e.l_domains) r.l_entries in
  if domains <> [] then begin
    Buffer.add_string buf "  protection domains:\n";
    String.split_on_char '\n' (Domains.table domains)
    |> List.iter (fun l ->
           if l <> "" then Buffer.add_string buf ("    " ^ l ^ "\n"))
  end;
  Buffer.contents buf

let stats_json (s : Simrel.stats) : Json.t =
  Obj
    [
      ("experiments", Int s.Simrel.n_experiments);
      ("masked", Int s.Simrel.n_masked);
      ("detected", Int s.Simrel.n_detected);
      ("timeout", Int s.Simrel.n_timeout);
      ("degraded", Int s.Simrel.n_degraded);
      ("not_exercised", Int s.Simrel.n_not_exercised);
      ("undetected", Int s.Simrel.n_undetected);
    ]

let entry_to_json e : Json.t =
  let envelope =
    match Findings.list_to_json e.l_findings with
    | Json.Obj fields -> fields
    | _ -> assert false
  in
  Obj
    (("target", Json.Str e.l_label) :: envelope
    @ [
        ( "stats",
          match e.l_stats with Some s -> stats_json s | None -> Json.Null );
        ( "domains",
          match e.l_domains with
          | Some d -> Domains.to_json d
          | None -> Json.Null );
        ( "cost",
          match e.l_cost with
          | Some c -> Costmodel.to_json c
          | None -> Json.Null );
        ( "skipped",
          match e.l_skip with Some s -> Json.Str s | None -> Json.Null );
        ( "skip_kind",
          match e.l_skip_kind with
          | Some k -> Json.Str (skip_kind_name k)
          | None -> Json.Null );
      ])

let to_json r : Json.t =
  Obj
    [
      ("kernel", Str r.l_name);
      ("clean", Bool (clean r));
      ("targets", List (List.map entry_to_json r.l_entries));
    ]
