(* Tests for the translation validator (gpu_tv): the simulation
   relation accepts every registry kernel under every flavor and rejects
   the seeded negatives; the protection-domain derivation reproduces the
   declared SoR matrix and agrees with fault-campaign provenance; the
   cost model's claims reconcile against measured launches; and the
   pressure estimate never underestimates the launch-time footprint. *)

module Simrel = Gpu_tv.Simrel
module Domains = Gpu_tv.Domains
module Costmodel = Gpu_tv.Costmodel
module Miscompile = Gpu_tv.Miscompile
module T = Rmt_core.Transform
module P = Gpu_prof.Provenance

let tc = Alcotest.test_case
let check = Alcotest.check

let all_targets =
  [
    ("intra+lds", Simrel.V T.intra_plus_lds);
    ("intra-lds", Simrel.V T.intra_minus_lds);
    ("intra+fast", Simrel.V T.intra_plus_lds_fast);
    ("inter", Simrel.V T.inter_group);
    ("tmr", Simrel.Tmr);
  ]

(* ------------------------------------------------------------------ *)
(* Positive fixtures: the whole registry, every flavor                 *)
(* ------------------------------------------------------------------ *)

let test_registry_accepted () =
  List.iter
    (fun (b : Kernels.Bench.t) ->
      let k0 = b.make_kernel () in
      List.iter
        (fun (label, target) ->
          match Simrel.subject target k0 with
          | exception Simrel.Unsupported _ -> ()
          | subj ->
              let r = Simrel.validate ~max_experiments:150 subj in
              if not (Simrel.ok r) then
                Alcotest.fail
                  (Printf.sprintf "%s/%s rejected: %s" b.id label
                     (String.concat "; "
                        (List.map
                           (Simrel.describe_violation
                              (Gpu_ir.Slice.of_kernel subj.Simrel.s_transformed)
                                .Gpu_ir.Slice.insts)
                           r.Simrel.res_violations))))
        all_targets)
    Kernels.Registry.all

(* ------------------------------------------------------------------ *)
(* Negative fixtures: no-comm ablations and seeded miscompiles         *)
(* ------------------------------------------------------------------ *)

let negative_benches = [ "MM"; "R"; "BinS"; "DCT" ]

let ablations =
  [
    ( "intra+lds/no-comm",
      Simrel.V
        (T.Intra
           { include_lds = true; comm = Rmt_core.Intra_group.Comm_none }) );
    ( "intra-lds/no-comm",
      Simrel.V
        (T.Intra
           { include_lds = false; comm = Rmt_core.Intra_group.Comm_none }) );
    ("inter/no-comm", Simrel.V (T.Inter { comm = false }));
  ]

(* An accepted negative is a validator escape: a transform whose checks
   were removed must show undetected faults. *)
let test_ablations_rejected () =
  List.iter
    (fun id ->
      let k0 = (Kernels.Registry.find id).make_kernel () in
      List.iter
        (fun (label, target) ->
          let subj = Simrel.subject target k0 in
          let r = Simrel.validate ~max_experiments:150 subj in
          if Simrel.ok r then
            Alcotest.fail
              (Printf.sprintf "%s/%s: no-comm ablation accepted" id label))
        ablations)
    negative_benches

let test_miscompiles_rejected () =
  List.iter
    (fun id ->
      let k0 = (Kernels.Registry.find id).make_kernel () in
      List.iter
        (fun mode ->
          let subj =
            Simrel.subject ~mutate:(Miscompile.apply mode)
              (Simrel.V T.intra_plus_lds) k0
          in
          (* the surgery keeps the kernel structurally well-formed *)
          Gpu_ir.Verify.check subj.Simrel.s_transformed;
          let r = Simrel.validate ~max_experiments:150 subj in
          (match r.Simrel.res_violations with
          | [] ->
              Alcotest.fail
                (Printf.sprintf "%s/%s: miscompile accepted" id
                   (Miscompile.mode_name mode))
          | vs ->
              (* every rejection names the offending store site *)
              if
                not
                  (List.exists (fun v -> Simrel.violation_store_site v >= 0) vs)
              then
                Alcotest.fail
                  (Printf.sprintf "%s/%s: rejection carries no store site" id
                     (Miscompile.mode_name mode))))
        Miscompile.all_modes)
    negative_benches

(* ------------------------------------------------------------------ *)
(* Protection domains                                                  *)
(* ------------------------------------------------------------------ *)

(* The static derivation must reproduce the declared Table 2/3 rows for
   every registry kernel — including the LDS-free ones, where the LDS
   row falls back to the flavor's allocation policy. *)
let test_domains_match_sor () =
  List.iter
    (fun (b : Kernels.Bench.t) ->
      let k0 = b.make_kernel () in
      List.iter
        (fun (label, target) ->
          match Domains.of_kernel target k0 with
          | exception Simrel.Unsupported _ -> ()
          | r -> (
              match Domains.sor_flavor_of_target target with
              | None -> ()
              | Some flavor -> (
                  match Domains.crosscheck_sor r flavor with
                  | [] -> ()
                  | ss ->
                      Alcotest.fail
                        (Printf.sprintf "%s/%s disagrees with Sor on %s" b.id
                           label
                           (String.concat ", "
                              (List.map Rmt_core.Sor.structure_name ss))))))
        all_targets)
    Kernels.Registry.all

let provenance_record ~structure ~consumed ~detected =
  let r = P.create () in
  r.P.target <- Some structure;
  r.P.bit <- 0;
  r.P.inject_cycle <- 10;
  r.P.inject_inst_index <- 5;
  if consumed then
    r.P.first_use <-
      Some { P.u_site = 1; u_cycle = 20; u_inst_index = 8; u_inst = "v_add" };
  if detected then begin
    r.P.detect_site <- 3;
    r.P.detect_cycle <- 30;
    r.P.detect_inst_index <- 12
  end;
  r

let test_campaign_crosscheck () =
  let k0 = (Kernels.Registry.find "MM").make_kernel () in
  let r = Domains.of_kernel (Simrel.V T.intra_plus_lds) k0 in
  (* consumed-and-detected VGPR fault: consistent with VRF protection *)
  let good =
    P.aggregate [ provenance_record ~structure:P.S_vgpr ~consumed:true ~detected:true ]
  in
  check Alcotest.(list string) "detected VGPR fault is consistent" []
    (Domains.crosscheck_campaign r good);
  (* consumed-but-undetected VGPR fault contradicts the matrix *)
  let bad =
    P.aggregate [ provenance_record ~structure:P.S_vgpr ~consumed:true ~detected:false ]
  in
  check Alcotest.int "undetected VGPR fault is flagged" 1
    (List.length (Domains.crosscheck_campaign r bad));
  (* SRF is outside the Intra sphere: an escape there makes no claim *)
  let srf =
    P.aggregate [ provenance_record ~structure:P.S_sgpr ~consumed:true ~detected:false ]
  in
  check Alcotest.(list string) "SRF escape is not a contradiction" []
    (Domains.crosscheck_campaign r srf)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let bench_local_items (b : Kernels.Bench.t) =
  let dev = Gpu_sim.Device.create Gpu_sim.Config.default in
  Gpu_sim.Geom.group_items
    (List.hd (b.prepare dev ~scale:1).Kernels.Bench.steps).Kernels.Bench.nd

let measured_of (s : Harness.Run.summary) : Costmodel.measured =
  {
    Costmodel.m_usage = s.Harness.Run.usage;
    m_occupancy = s.Harness.Run.occupancy;
    m_global_store_insts =
      s.Harness.Run.counters.Gpu_sim.Counters.global_store_insts;
    m_valu_insts = s.Harness.Run.counters.Gpu_sim.Counters.valu_insts;
    m_lds_insts = s.Harness.Run.counters.Gpu_sim.Counters.lds_insts;
  }

let test_costmodel_reconciles () =
  List.iter
    (fun id ->
      let b = Kernels.Registry.find id in
      let local = bench_local_items b in
      let k0 = b.make_kernel () in
      let base = Harness.Run.run b T.Original in
      List.iter
        (fun (label, v) ->
          let p = Costmodel.predict ~local_items:local (Simrel.V v) k0 in
          let rmt = Harness.Run.run b v in
          match
            Costmodel.reconcile p ~base:(measured_of base)
              ~rmt:(measured_of rmt)
          with
          | [] -> ()
          | ps ->
              Alcotest.fail
                (Printf.sprintf "%s/%s: %s" id label (String.concat "; " ps)))
        [
          ("intra+lds", T.intra_plus_lds);
          ("intra-lds", T.intra_minus_lds);
          ("inter", T.inter_group);
        ])
    [ "BinS"; "MM"; "R" ]

(* Inter-Group's 3× store identity is the model's one exact dynamic
   claim; assert the prediction states it as an exact bound. *)
let test_costmodel_bounds_shape () =
  let k0 = (Kernels.Registry.find "MM").make_kernel () in
  let inter = Costmodel.predict (Simrel.V T.inter_group) k0 in
  check Alcotest.(pair int int) "inter stores exactly 3x" (3, 3)
    (inter.Costmodel.c_store_lo, inter.Costmodel.c_store_hi);
  let intra = Costmodel.predict (Simrel.V T.intra_plus_lds) k0 in
  check Alcotest.(pair int int) "intra stores within [1x, 2x]" (1, 2)
    (intra.Costmodel.c_store_lo, intra.Costmodel.c_store_hi);
  check Alcotest.bool "intra inserts checks" true
    (intra.Costmodel.c_comm.Costmodel.cc_checks > 0);
  check Alcotest.bool "intra publishes into the channel" true
    (intra.Costmodel.c_comm.Costmodel.cc_publishes > 0)

(* ------------------------------------------------------------------ *)
(* Pressure estimate vs launch-time footprint (satellite)              *)
(* ------------------------------------------------------------------ *)

(* The device trusts [Regpressure.analyze] at launch; the linear-scan
   allocator's high-water mark is the concrete demand. The estimate may
   carry slack but must never underestimate, for any registry kernel
   under any flavor. *)
let test_regpressure_never_underestimates () =
  List.iter
    (fun (b : Kernels.Bench.t) ->
      let k0 = b.make_kernel () in
      let kernels =
        (b.id ^ "/original", k0)
        :: List.filter_map
             (fun (label, target) ->
               match Simrel.subject target k0 with
               | exception Simrel.Unsupported _ -> None
               | subj -> Some (b.id ^ "/" ^ label, subj.Simrel.s_transformed))
             all_targets
      in
      List.iter
        (fun (what, k) ->
          let u = Gpu_ir.Regpressure.analyze k in
          let a = Gpu_ir.Regalloc.allocate k in
          if u.Gpu_ir.Regpressure.vgprs < a.Gpu_ir.Regalloc.vgprs_used then
            Alcotest.fail
              (Printf.sprintf "%s: VGPR estimate %d < allocated %d" what
                 u.Gpu_ir.Regpressure.vgprs a.Gpu_ir.Regalloc.vgprs_used);
          if u.Gpu_ir.Regpressure.sgprs < a.Gpu_ir.Regalloc.sgprs_used then
            Alcotest.fail
              (Printf.sprintf "%s: SGPR estimate %d < allocated %d" what
                 u.Gpu_ir.Regpressure.sgprs a.Gpu_ir.Regalloc.sgprs_used);
          let lds_bytes =
            List.fold_left (fun acc (_, b) -> acc + b) 0 k.Gpu_ir.Types.lds_allocs
          in
          if u.Gpu_ir.Regpressure.lds < lds_bytes then
            Alcotest.fail
              (Printf.sprintf "%s: LDS estimate %d < allocated %d" what
                 u.Gpu_ir.Regpressure.lds lds_bytes))
        kernels)
    Kernels.Registry.all

(* ------------------------------------------------------------------ *)
(* The lint harness end to end                                         *)
(* ------------------------------------------------------------------ *)

(* BinS through the merged verification over the whole matrix: clean,
   with one JSON entry per target. (BinS and FW against the check
   matrix are covered by the sanitizer suite.) *)
let test_lint_bench_clean_json () =
  let report =
    Harness.Lint.lint_bench ~max_experiments:40 (Kernels.Registry.find "BinS")
  in
  if not (Harness.Lint.clean report) then
    Alcotest.fail (Harness.Lint.to_string report);
  match Harness.Lint.to_json report with
  | Gpu_trace.Json.Obj fields ->
      (match List.assoc_opt "clean" fields with
      | Some (Gpu_trace.Json.Bool true) -> ()
      | _ -> Alcotest.fail "JSON clean flag missing or false");
      (match List.assoc_opt "targets" fields with
      | Some (Gpu_trace.Json.List ts) ->
          check Alcotest.int "one JSON entry per target"
            (List.length Harness.Lint.all_targets)
            (List.length ts)
      | _ -> Alcotest.fail "JSON targets missing")
  | _ -> Alcotest.fail "report JSON is not an object"

(* TMR skips its dynamic run by design (3 × group > wavefront on every
   registry workload); the skip must be a structured classification CI
   can assert on, both on the entry and in the JSON artifact — not just
   prose. *)
let test_lint_tmr_static_only_skip () =
  let report =
    Harness.Lint.lint_bench ~max_experiments:40
      ~targets:[ ("tmr", Simrel.Tmr) ]
      (Kernels.Registry.find "BinS")
  in
  let e =
    match report.Harness.Lint.l_entries with
    | [ e ] -> e
    | _ -> Alcotest.fail "expected exactly one entry"
  in
  (match e.Harness.Lint.l_skip_kind with
  | Some Harness.Lint.Sk_static_only -> ()
  | _ -> Alcotest.fail "TMR entry not classified Sk_static_only");
  check Alcotest.bool "dynamic run skipped" true (e.Harness.Lint.l_run = None);
  match Harness.Lint.entry_to_json e with
  | Gpu_trace.Json.Obj fields -> (
      match List.assoc_opt "skip_kind" fields with
      | Some (Gpu_trace.Json.Str "static_only") -> ()
      | _ -> Alcotest.fail "JSON skip_kind is not \"static_only\"")
  | _ -> Alcotest.fail "entry JSON is not an object"

let suite =
  [
    tc "registry accepted under every flavor" `Slow test_registry_accepted;
    tc "no-comm ablations rejected" `Slow test_ablations_rejected;
    tc "seeded miscompiles rejected with site" `Slow
      test_miscompiles_rejected;
    tc "domains match declared SoR matrix" `Quick test_domains_match_sor;
    tc "campaign provenance crosscheck" `Quick test_campaign_crosscheck;
    tc "cost model reconciles vs simulator" `Slow test_costmodel_reconciles;
    tc "cost model bound shapes" `Quick test_costmodel_bounds_shape;
    tc "regpressure never underestimates" `Quick
      test_regpressure_never_underestimates;
    tc "lint harness clean + JSON envelope" `Quick test_lint_bench_clean_json;
    tc "lint harness: TMR skip is static_only" `Quick
      test_lint_tmr_static_only_skip;
  ]
