(** The four workloads as fixed, ordered job lists.

    Each job has two executions that must agree exactly:
    - [run], the user-facing call ([Harness.Run.run], [run_sanitized],
      [Harness.Lint.lint_target]) — what the timed loop measures;
    - [replay], the same work rebuilt from each layer's public functions
      in order, under {!Spans}: [Device.create], [prepare],
      [Transform.apply], [make_extras], [launch] per step, [verify], then
      [Power_model]. The traced run compares both digests job by job.

    Inputs are the registry's fixed built-in inputs; the seed only
    drives the fault-injection plans of [campaign]. *)

module T = Rmt_core.Transform
module Run = Harness.Run
module Device = Gpu_sim.Device
module Counters = Gpu_sim.Counters
module Campaign = Fault.Campaign
module Simrel = Gpu_tv.Simrel

let cfg = Gpu_sim.Config.default

type detail =
  | Sim of Run.summary  (** fault-free run (figgrid, campaign golden) *)
  | Injected of { summary : Run.summary; outcome : Campaign.outcome }
  | Sanitized of { summary : Run.summary; findings : int; sor : int }
  | Lint of { stats : Simrel.stats option; accepted : bool }
  | Host_exception of string

type info = {
  digest : string;
  failure : string option;  (** [None] = the job's output is correct *)
  detail : detail;
}

type job = {
  label : string;
  run : unit -> info;
  replay : Spans.t -> info;
  plain : (unit -> unit) option;
      (** the unobserved run of the same job, timed in the traced run to
          price the sanitizer ([sanitize] only) *)
}

let summary_of = function
  | Sim s | Injected { summary = s; _ } | Sanitized { summary = s; _ } ->
      Some s
  | Lint _ | Host_exception _ -> None

let issues (c : Counters.t) =
  c.valu_insts + c.salu_insts + c.vmem_insts + c.lds_insts

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)
(* ------------------------------------------------------------------ *)

let add_counters b (c : Counters.t) =
  List.iter (fun (k, v) -> Printf.bprintf b "%s=%d;" k v) (Counters.to_fields c)

(** Every simulated observable of a run: cycles, outcome, every counter,
    every power window, occupancy and resource usage. *)
let add_summary b (s : Run.summary) =
  Printf.bprintf b "%s/%s cycles=%d %s verified=%b steps=%d applied=%b lat=%s;"
    s.bench_id (T.name s.variant) s.cycles
    (Run.outcome_name s.outcome)
    s.verified s.steps s.inject_applied
    (match s.detection_latency with Some l -> string_of_int l | None -> "-");
  add_counters b s.counters;
  Array.iter (add_counters b) s.windows;
  Buffer.add_string b (Marshal.to_string (s.occupancy, s.usage) [ Marshal.No_sharing ])

let digest_of f =
  let b = Buffer.create 1024 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_failure (s : Run.summary) =
  match s.outcome with
  | Device.Finished when s.verified -> None
  | Device.Finished -> Some "output differs from the CPU reference"
  | o -> Some ("run did not finish: " ^ Run.outcome_name o)

(* ------------------------------------------------------------------ *)
(* The replay: Run.run rebuilt from public layer calls                 *)
(* ------------------------------------------------------------------ *)

(** Minor words allocated inside [Device.launch] by replays, for
    [gpu_sim.minor_words_per_issue]. *)
let launch_minor_words = ref 0.0

(** [Harness.Run.run] step by step, each layer under its own span.
    Returns the summary and the transformed kernel. *)
let replay_run sp ?san ?inject ?provenance ?max_cycles
    (b : Kernels.Bench.t) variant : Run.summary * Gpu_ir.Types.kernel =
  let layer name f = Spans.layer sp name f in
  let launch_layer = if san = None then "gpu_sim.launch" else "gpu_san.launch" in
  let dev =
    layer "gpu_sim.create" (fun () ->
        let d = Device.create cfg in
        Device.set_san d san;
        d)
  in
  let prep = layer "kernels.prepare" (fun () -> b.prepare dev ~scale:1) in
  let nd0 =
    match prep.steps with
    | s :: _ -> s.Kernels.Bench.nd
    | [] -> invalid_arg "benchmark produced no launch steps"
  in
  let k0 = layer "kernels.prepare" (fun () -> b.make_kernel ()) in
  let kernel, extras =
    layer "rmt_core.transform" (fun () ->
        let k = T.apply variant ~local_items:(Gpu_sim.Geom.group_items nd0) k0 in
        (k, T.make_extras variant dev ~nd:nd0))
  in
  layer "gpu_ir.analyses" (fun () ->
      Gpu_ir.Verify.check kernel;
      ignore (Gpu_ir.Regpressure.analyze kernel);
      ignore (Gpu_ir.Uniformity.analyze kernel));
  let total = Counters.create () in
  let windows = ref [] in
  let cycles = ref 0 in
  let outcome = ref Device.Finished in
  let last = ref None in
  let injected = ref false in
  let latency = ref None in
  (try
     List.iter
       (fun (step : Kernels.Bench.step) ->
         extras.T.reset ();
         let step_inject =
           match inject with
           | Some (plan : Device.inject_plan) when not !injected ->
               Some { plan with at_cycle = max 0 (plan.at_cycle - !cycles) }
           | _ -> None
         in
         let opts =
           {
             Device.default_opts with
             max_cycles;
             inject = step_inject;
             provenance;
           }
         in
         let nd = T.map_ndrange variant step.nd in
         let r =
           layer launch_layer (fun () ->
               let w0 = Gc.minor_words () in
               let r =
                 Device.launch ~opts dev kernel ~nd
                   ~args:(step.args @ extras.T.ex_args)
               in
               launch_minor_words :=
                 !launch_minor_words +. (Gc.minor_words () -. w0);
               r)
         in
         if r.inject_applied then injected := true;
         (match (r.injected_at, r.detected_at) with
         | Some i, Some d when d >= i -> latency := Some (d - i)
         | _ -> ());
         cycles := !cycles + r.cycles;
         Counters.accumulate ~into:total r.counters;
         windows := List.rev_append (Array.to_list r.windows) !windows;
         last := Some r;
         match r.outcome with
         | Device.Finished -> ()
         | bad ->
             outcome := bad;
             raise Exit)
       prep.steps
   with Exit -> ());
  total.cycles <- !cycles;
  let verified =
    match !outcome with
    | Device.Finished -> layer "kernels.verify" prep.verify
    | _ -> false
  in
  let r = match !last with Some r -> r | None -> failwith "no launch completed" in
  ( {
      Run.bench_id = b.id;
      variant;
      cycles = !cycles;
      counters = total;
      windows = Array.of_list (List.rev !windows);
      outcome = !outcome;
      verified;
      occupancy = r.occupancy;
      usage = r.usage;
      steps = List.length prep.steps;
      inject_applied = !injected;
      detection_latency = !latency;
    },
    kernel )

(* ------------------------------------------------------------------ *)
(* figgrid: the paper's evaluation grid                                *)
(* ------------------------------------------------------------------ *)

let flavors =
  [
    ("original", T.Original);
    ("intra_plus_lds", T.intra_plus_lds);
    ("intra_minus_lds", T.intra_minus_lds);
    ("inter", T.inter_group);
  ]

(** The grid's kernels: the nine with the cheapest four-flavor host
    time, so that a run repeats the whole set several times (each job's
    host time is its fastest repetition). *)
let figgrid_kernels =
  [ "PS"; "BinS"; "SF"; "BlkSch"; "URNG"; "FWT"; "DWT"; "QRS"; "DCT" ]

let power (s : Run.summary) =
  Gpu_power.Power_model.report ~cfg ~windows:s.windows ~fallback:s.counters ()

let power_digest b (p : Gpu_power.Power_model.report) =
  Printf.bprintf b "power %h %h;" p.average_w p.peak_w

let figgrid_job (b : Kernels.Bench.t) (fname, variant) =
  let info s p =
    {
      digest = digest_of (fun buf -> add_summary buf s; power_digest buf p);
      failure = run_failure s;
      detail = Sim s;
    }
  in
  {
    label = b.id ^ "/" ^ fname;
    run =
      (fun () ->
        let s = Run.run ~cfg b variant in
        info s (power s));
    replay =
      (fun sp ->
        let s, _ = replay_run sp b variant in
        info s (Spans.layer sp "gpu_power.model" (fun () -> power s)));
    plain = None;
  }

let figgrid () =
  List.concat_map
    (fun id ->
      let b = Kernels.Registry.find id in
      List.map (figgrid_job b) flavors)
    figgrid_kernels

(* ------------------------------------------------------------------ *)
(* campaign: fault injection in the style of coverage_experiment       *)
(* ------------------------------------------------------------------ *)

(** The coverage kernels and their injections per cell. BlkSch's runs
    are shorter than R's; two BlkSch injections per cell keep the
    median job inside BlkSch's cluster of run times and the tail inside
    R's, instead of on the gap between them. *)
let campaign_benches = [ ("BlkSch", 2); ("R", 1) ]

let campaign_flavors =
  [
    ("intra_plus_lds", T.intra_plus_lds, Rmt_core.Sor.Intra_plus_lds);
    ("intra_minus_lds", T.intra_minus_lds, Rmt_core.Sor.Intra_minus_lds);
    ("inter", T.inter_group, Rmt_core.Sor.Inter_group);
  ]

(** Each injected structure and the SoR structure it corrupts. *)
let campaign_targets =
  [
    ("vgpr", Device.T_vgpr, Rmt_core.Sor.VRF);
    ("sgpr", Device.T_sgpr, Rmt_core.Sor.SRF);
    ("lds", Device.T_lds, Rmt_core.Sor.LDS);
    ("l1", Device.T_l1, Rmt_core.Sor.L1_cache);
  ]

(** Injection [k] of cell [c] takes plan [(c + k) mod 3] of a three-plan
    campaign, so the injection times fall at 10%, 50% and 90% of the
    fault-free execution. *)
let plans_per_cell = 3

let campaign ~seed =
  (* golden cycles per (kernel, flavor), set by the golden job that
     precedes every injection into that pair; preallocated so a golden
     job allocates the same on every repetition *)
  let golden =
    List.concat_map
      (fun (id, _) ->
        List.map (fun (f, _, _) -> (id ^ "/" ^ f, ref 0)) campaign_flavors)
      campaign_benches
  in
  let golden_job (b : Kernels.Bench.t) (fname, variant, _) =
    let key = b.id ^ "/" ^ fname in
    let cell = List.assoc key golden in
    let info (s : Run.summary) =
      cell := s.cycles;
      { digest = digest_of (fun buf -> add_summary buf s);
        failure = run_failure s; detail = Sim s }
    in
    {
      label = key ^ "/golden";
      run = (fun () -> info (Run.run ~cfg b variant));
      replay = (fun sp -> info (fst (replay_run sp b variant)));
      plain = None;
    }
  in
  let inject_job round ((b : Kernels.Bench.t), (fname, variant, flavor),
      (tname, target, structure)) =
    let key = b.id ^ "/" ^ fname in
    let cell = List.assoc key golden in
    let setup () =
      match !cell with
      | 0 -> failwith ("no golden run for " ^ key)
      | golden_cycles ->
          let plan =
            List.nth
              (Campaign.plans ~n:plans_per_cell ~target ~seed ~golden_cycles ())
              round
          in
          (* bound a hang to a small multiple of the fault-free runtime,
             as the coverage experiment does *)
          (plan, (golden_cycles * 10) + 50_000, Gpu_prof.Provenance.create ())
    in
    let info (s : Run.summary) prov =
      let outcome =
        Campaign.classify
          {
            Campaign.oc = s.outcome;
            output_ok = s.verified;
            applied = s.inject_applied;
            latency = s.detection_latency;
            prov = Some prov;
            san_clean = None;
          }
      in
      let failure =
        if outcome = Campaign.O_sdc && Rmt_core.Sor.protects flavor structure
        then
          Some
            (Printf.sprintf "silent data corruption from a %s flip, which %s protects"
               tname fname)
        else None
      in
      {
        digest =
          digest_of (fun buf ->
              add_summary buf s;
              Buffer.add_string buf (Campaign.outcome_name outcome));
        failure;
        detail = Injected { summary = s; outcome };
      }
    in
    {
      label = Printf.sprintf "%s/%s/%d" key tname round;
      run =
        (fun () ->
          let inject, max_cycles, prov = setup () in
          info (Run.run ~cfg ~max_cycles ~inject ~provenance:prov b variant) prov);
      replay =
        (fun sp ->
          let inject, max_cycles, prov = setup () in
          info
            (fst (replay_run sp ~max_cycles ~inject ~provenance:prov b variant))
            prov);
      plain = None;
    }
  in
  let benches =
    List.map (fun (id, k) -> (Kernels.Registry.find id, k)) campaign_benches
  in
  let goldens =
    List.concat_map
      (fun (b, _) -> List.map (golden_job b) campaign_flavors)
      benches
  in
  let cells =
    List.concat_map
      (fun (b, k) ->
        List.concat_map
          (fun f -> List.map (fun t -> (b, f, t, k)) campaign_targets)
          campaign_flavors)
      benches
  in
  let injections =
    List.concat
      (List.mapi
         (fun c (b, f, t, k) ->
           List.init k (fun i -> inject_job ((c + i) mod plans_per_cell) (b, f, t)))
         cells)
  in
  goldens @ injections

(* ------------------------------------------------------------------ *)
(* lint: the translation validator                                     *)
(* ------------------------------------------------------------------ *)

let max_experiments = Harness.Lint.default_max_experiments

type subject = {
  s_bench : string;
  s_label : string;
  s_target : Simrel.target;
  s_mutate : (Gpu_ir.Types.kernel -> Gpu_ir.Types.kernel) option;
  s_expect_accept : bool;
}

let negative_benches = [ "MM"; "R"; "BinS"; "DCT" ]

let ablations =
  [
    ( "intra+lds/no-comm",
      Simrel.V
        (T.Intra { include_lds = true; comm = Rmt_core.Intra_group.Comm_none }) );
    ( "intra-lds/no-comm",
      Simrel.V
        (T.Intra { include_lds = false; comm = Rmt_core.Intra_group.Comm_none }) );
    ("inter/no-comm", Simrel.V (T.Inter { comm = false }));
  ]

(** The accepted registry (16 kernels × 5 flavors), then the negative
    fixtures: no-comm ablations and seeded miscompiles, all rejected. *)
let lint_subjects () =
  let positives =
    List.concat_map
      (fun (b : Kernels.Bench.t) ->
        List.map
          (fun (label, target) ->
            { s_bench = b.id; s_label = label; s_target = target;
              s_mutate = None; s_expect_accept = true })
          Harness.Lint.standard_targets)
      Kernels.Registry.all
  in
  let negatives =
    List.concat_map
      (fun id ->
        List.map
          (fun (label, target) ->
            { s_bench = id; s_label = label; s_target = target;
              s_mutate = None; s_expect_accept = false })
          ablations
        @ List.map
            (fun mode ->
              { s_bench = id;
                s_label = "intra+lds/" ^ Gpu_tv.Miscompile.mode_name mode;
                s_target = Simrel.V T.intra_plus_lds;
                s_mutate = Some (Gpu_tv.Miscompile.apply mode);
                s_expect_accept = false })
            Gpu_tv.Miscompile.all_modes)
      negative_benches
  in
  positives @ negatives

(** Build every negative fixture's mutated kernel and check that it is
    structurally well formed (part of set-up). *)
let build_fixtures () =
  List.iter
    (fun s ->
      match s.s_mutate with
      | Some mutate when not s.s_expect_accept ->
          let subj =
            Simrel.subject ~mutate s.s_target
              ((Kernels.Registry.find s.s_bench).make_kernel ())
          in
          Gpu_ir.Verify.check subj.s_transformed
      | _ -> ())
    (lint_subjects ())

let lint_info s ~stats ~accepted ~findings ~has_site =
  let failure =
    if s.s_expect_accept && not accepted then Some "registry subject rejected"
    else if (not s.s_expect_accept) && accepted then
      Some "negative fixture accepted"
    else if (not s.s_expect_accept) && not has_site then
      Some "rejection names no store site"
    else None
  in
  {
    digest =
      digest_of (fun buf ->
          Printf.bprintf buf "%s/%s accepted=%b findings=%d;" s.s_bench
            s.s_label accepted findings;
          match stats with
          | Some (st : Simrel.stats) ->
              Printf.bprintf buf "%d %d %d %d %d %d %d" st.n_experiments
                st.n_masked st.n_detected st.n_timeout st.n_degraded
                st.n_not_exercised st.n_undetected
          | None -> Buffer.add_string buf "skipped");
    failure;
    detail = Lint { stats; accepted };
  }

(** subject → validate → protection domains → cost model, each layer
    timed by [timer]. *)
let validate_decomposed (timer : Spans.timer) s =
  let layer = timer.time in
  let k0 = (Kernels.Registry.find s.s_bench).make_kernel () in
  let subj =
    layer "gpu_tv.subject" (fun () ->
        Simrel.subject ?mutate:s.s_mutate s.s_target k0)
  in
  let res =
    layer "gpu_tv.validate" (fun () -> Simrel.validate ~max_experiments subj)
  in
  let disagreements =
    layer "gpu_tv.domains" (fun () ->
        let d =
          Gpu_tv.Domains.derive ~target:s.s_target ~original:subj.s_original
            ~transformed:subj.s_transformed
        in
        match Gpu_tv.Domains.sor_flavor_of_target s.s_target with
        | Some flavor -> Gpu_tv.Domains.crosscheck_sor d flavor
        | None -> [])
  in
  layer "gpu_tv.costmodel" (fun () ->
      ignore (Gpu_tv.Costmodel.predict ~cfg ~local_items:Simrel.default_local_items
                s.s_target k0));
  let findings = List.length res.res_violations + List.length disagreements in
  lint_info s ~stats:(Some res.res_stats) ~accepted:(findings = 0) ~findings
    ~has_site:
      (List.exists (fun v -> Simrel.violation_store_site v >= 0) res.res_violations)

let lint_job s =
  let run () =
    match s.s_mutate with
    | Some _ -> validate_decomposed Spans.untraced s
    | None ->
        (* Harness.Lint has no hook for a seeded miscompile; every other
           subject goes through the user-facing lint entry *)
        let e =
          Harness.Lint.lint_target
            ~k0:((Kernels.Registry.find s.s_bench).make_kernel ())
            (s.s_label, s.s_target)
        in
        let accepted = Harness.Lint.entry_clean e && e.l_skip = None in
        lint_info s ~stats:e.l_stats ~accepted
          ~findings:(List.length e.l_findings)
          ~has_site:
            (List.exists
               (fun (f : Gpu_findings.Findings.finding) -> f.f_site <> None)
               e.l_findings)
  in
  {
    label = s.s_bench ^ "/" ^ s.s_label;
    run;
    replay = (fun sp -> validate_decomposed (Spans.traced sp) s);
    plain = None;
  }

let lint () = List.map lint_job (lint_subjects ())

(* ------------------------------------------------------------------ *)
(* sanitize: the dynamic half of the check gate                        *)
(* ------------------------------------------------------------------ *)

let sor_flavor = function
  | T.Original -> Rmt_core.Sor_check.F_original
  | T.Intra { include_lds = true; _ } -> Rmt_core.Sor_check.F_intra_plus
  | T.Intra { include_lds = false; _ } -> Rmt_core.Sor_check.F_intra_minus
  | T.Inter _ -> Rmt_core.Sor_check.F_inter

let sanitize_job (b : Kernels.Bench.t) (fname, variant) =
  let info s kernel shadow (timer : Spans.timer) =
    let layer = timer.time in
    let sor =
      layer "rmt_core.sor_check" (fun () ->
          Rmt_core.Sor_check.check (sor_flavor variant) kernel)
    in
    let report =
      layer "gpu_findings.render" (fun () ->
          Gpu_san.Report.to_string ~kernel shadow)
    in
    let findings = List.length (Gpu_san.Shadow.findings shadow) in
    let failure =
      match run_failure s with
      | Some f -> Some f
      | None when findings > 0 -> Some ("sanitizer findings:\n" ^ report)
      | None when sor <> [] ->
          Some
            ("SoR contract violations: "
            ^ String.concat "; " (List.map Rmt_core.Sor_check.describe sor))
      | None -> None
    in
    {
      digest =
        digest_of (fun buf ->
            add_summary buf s;
            Printf.bprintf buf "findings=%d sor=%d" findings (List.length sor));
      failure;
      detail = Sanitized { summary = s; findings; sor = List.length sor };
    }
  in
  {
    label = b.id ^ "/" ^ fname;
    run =
      (fun () ->
        let s, kernel, shadow = Run.run_sanitized ~cfg b variant in
        info s kernel shadow Spans.untraced);
    replay =
      (fun sp ->
        let shadow = Gpu_san.Shadow.create () in
        let s, kernel = replay_run sp ~san:shadow b variant in
        info s kernel shadow (Spans.traced sp));
    plain = Some (fun () -> ignore (Run.run ~cfg b variant));
  }

(** The six kernels with the cheapest sanitized runs. *)
let sanitize_kernels = [ "PS"; "BinS"; "SF"; "QRS"; "BlkSch"; "URNG" ]

let sanitize () =
  List.concat_map
    (fun id ->
      let b = Kernels.Registry.find id in
      List.map (sanitize_job b) flavors)
    sanitize_kernels

let names = [ "figgrid"; "campaign"; "lint"; "sanitize" ]

let workload name ~seed =
  match name with
  | "figgrid" -> figgrid ()
  | "campaign" -> campaign ~seed
  | "lint" -> lint ()
  | "sanitize" -> sanitize ()
  | _ -> invalid_arg ("unknown workload " ^ name)
