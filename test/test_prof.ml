(* Tests for the per-instruction profiler, fault-propagation provenance
   and the perfdiff gate: the central property is reconciliation — the
   per-site sums of every cycle-exact collector field must equal the
   whole-run Counters fields charged at the same program points, across
   kernels, RMT variants and pool widths. Plus: profiling must not
   perturb a run, the annotated report and its JSON must agree with the
   collector, provenance records must describe real injections, and the
   perfdiff gate must flag synthetic regressions and nothing else. *)

open Gpu_ir
module Sim = Gpu_sim
module T = Rmt_core.Transform
module C = Gpu_prof.Collector
module Prov = Gpu_prof.Provenance
module Json = Gpu_trace.Json
module Sink = Gpu_trace.Sink

let check = Alcotest.check
let tc = Alcotest.test_case

let all_variants =
  [
    T.Original;
    T.intra_plus_lds;
    T.intra_minus_lds;
    T.intra_plus_lds_fast;
    T.intra_minus_lds_fast;
    T.inter_group;
  ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Reconciliation: per-site sums == whole-run counters                  *)
(* ------------------------------------------------------------------ *)

(* Every cycle-exact collector field against the Counters field charged
   at the same program point, plus issues against the four issue
   counters. *)
let reconcile ~what (ct : Sim.Counters.t) (c : C.t) =
  let open Sim.Counters in
  List.iter
    (fun (field, per_site, total) ->
      check Alcotest.int
        (Printf.sprintf "%s: site sums == counters.%s" what field)
        total (C.sum per_site))
    [
      ("valu_busy", c.C.valu_busy, ct.valu_busy);
      ("salu_busy", c.C.salu_busy, ct.salu_busy);
      ("mem_unit_busy", c.C.mem_unit_busy, ct.mem_unit_busy);
      ("lds_busy", c.C.lds_busy, ct.lds_busy);
      ("write_stalled", c.C.write_stalled, ct.write_stalled);
      ("spin_iterations", c.C.spin_iterations, ct.spin_iterations);
      ("l1_hits", c.C.l1_hits, ct.l1_hits);
      ("l1_misses", c.C.l1_misses, ct.l1_misses);
      ("l2_hits", c.C.l2_hits, ct.l2_hits);
      ("l2_misses", c.C.l2_misses, ct.l2_misses);
      ( "issues",
        c.C.issues,
        ct.valu_insts + ct.salu_insts + ct.vmem_insts + ct.lds_insts );
    ]

(* The property, as the ISSUE states it: several kernels x all RMT
   variants, through pools of width 1 and 4. BitS is multi-pass, so it
   also exercises cross-launch accumulation into one collector. *)
let test_reconciles_across_variants_and_jobs () =
  let benches = List.map Kernels.Registry.find [ "PS"; "BitS" ] in
  let cases =
    List.concat_map (fun b -> List.map (fun v -> (b, v)) all_variants) benches
  in
  let job (bench, v) =
    let s, _k, c = Harness.Run.run_profiled bench v in
    (Printf.sprintf "%s/%s" bench.Kernels.Bench.id (T.name v), s, c)
  in
  let run_at jobs =
    let p = Harness.Pool.create ~jobs () in
    let r = Harness.Pool.map p job cases in
    Harness.Pool.shutdown p;
    r
  in
  let results1 = run_at 1 and results4 = run_at 4 in
  List.iter
    (fun (what, (s : Harness.Run.summary), c) ->
      check Alcotest.bool (what ^ ": verified") true s.Harness.Run.verified;
      check Alcotest.bool (what ^ ": profile nonempty") true (C.total_busy c > 0);
      reconcile ~what s.Harness.Run.counters c)
    results1;
  (* and the per-site attribution itself is j-independent *)
  List.iter2
    (fun (what, _, c1) (_, _, c4) ->
      check Alcotest.bool (what ^ ": j1 == j4 per-site") true
        (c1.C.issues = c4.C.issues
        && c1.C.valu_busy = c4.C.valu_busy
        && c1.C.mem_unit_busy = c4.C.mem_unit_busy
        && c1.C.lds_busy = c4.C.lds_busy))
    results1 results4

(* ------------------------------------------------------------------ *)
(* Device-level: zero perturbation, size checking                       *)
(* ------------------------------------------------------------------ *)

(* A kernel with LDS traffic, a barrier, a loop and global loads/stores
   so every profiled unit sees work. *)
let mixed_kernel () =
  let b = Builder.create "mixed" in
  let inp = Builder.buffer_param b "inp" in
  let out = Builder.buffer_param b "out" in
  let lds = Builder.lds_alloc b "x" (64 * 4) in
  let lid = Builder.local_id b 0 in
  let gid = Builder.global_id b 0 in
  let slot i = Builder.add b lds (Builder.shl b i (Builder.imm 2)) in
  Builder.lstore b (slot lid) (Builder.gload_elem b inp gid);
  Builder.barrier b;
  let v = Builder.lload b (slot (Builder.sub b (Builder.imm 63) lid)) in
  let acc = Builder.cell b (Builder.imm 0) in
  Builder.for_ b ~lo:(Builder.imm 0) ~hi:(Builder.imm 8) ~step:(Builder.imm 1)
    (fun j -> Builder.set b acc (Builder.add b (Builder.get acc) j));
  Builder.gstore_elem b out gid (Builder.add b v (Builder.get acc));
  Builder.finish b

let launch_mixed ?(opts = Sim.Device.default_opts) k =
  let dev = Sim.Device.create Sim.Config.small in
  let inp = Sim.Device.alloc dev (256 * 4) in
  let out = Sim.Device.alloc dev (256 * 4) in
  for i = 0 to 255 do
    Sim.Device.write_i32 dev inp i (i * 3)
  done;
  Sim.Device.launch ~opts dev k
    ~nd:(Sim.Geom.make_ndrange 256 64)
    ~args:[ Sim.Device.A_buf inp; Sim.Device.A_buf out ]

let test_profiling_does_not_perturb () =
  let k = mixed_kernel () in
  let plain = launch_mixed k in
  let c = C.create ~nsites:(Site.count k) in
  let profiled =
    launch_mixed ~opts:{ Sim.Device.default_opts with profile = Some c } k
  in
  check Alcotest.int "same cycles" plain.Sim.Device.cycles
    profiled.Sim.Device.cycles;
  List.iter2
    (fun (ka, va) (kb, vb) ->
      check Alcotest.bool ("same counters: " ^ ka) true (ka = kb && va = vb))
    (Sim.Counters.to_fields plain.Sim.Device.counters)
    (Sim.Counters.to_fields profiled.Sim.Device.counters);
  reconcile ~what:"mixed" profiled.Sim.Device.counters c

let test_wrong_size_collector_rejected () =
  let k = mixed_kernel () in
  let bad = C.create ~nsites:(Site.count k + 3) in
  check Alcotest.bool "launch rejects mis-sized collector" true
    (match
       launch_mixed ~opts:{ Sim.Device.default_opts with profile = Some bad } k
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_site_numbering_deterministic () =
  let k = mixed_kernel () in
  let a1, n1 = Site.annotate k.Types.body in
  let a2, n2 = Site.annotate k.Types.body in
  check Alcotest.int "same count" n1 n2;
  check Alcotest.bool "same numbering" true (a1 = a2);
  check Alcotest.int "count matches Site.count" (Site.count k) n1;
  check Alcotest.int "insts array sized" n1 (Array.length (Site.insts k))

(* ------------------------------------------------------------------ *)
(* Report                                                               *)
(* ------------------------------------------------------------------ *)

let test_report_agrees_with_collector () =
  let bench = Kernels.Registry.find "PS" in
  let _s, k, c = Harness.Run.run_profiled bench T.intra_plus_lds in
  let listing = Gpu_prof.Report.annotated_listing k c in
  (* one body line per site, plus header and structure lines *)
  check Alcotest.bool "listing has at least one line per site" true
    (List.length (String.split_on_char '\n' listing) > c.C.nsites);
  let hot = Gpu_prof.Report.hotspots ~n:4 k c in
  check Alcotest.bool "hotspots nonempty" true (String.length hot > 0);
  let j = Json.parse (Json.to_string (Gpu_prof.Report.to_json k c)) in
  (match Json.member "nsites" j with
  | Some (Json.Int n) -> check Alcotest.int "json nsites" c.C.nsites n
  | _ -> Alcotest.fail "nsites missing");
  (match Json.member "total_busy" j with
  | Some (Json.Int tb) ->
      check Alcotest.int "json total_busy" (C.total_busy c) tb
  | _ -> Alcotest.fail "total_busy missing");
  (match Json.member "sites" j with
  | Some (Json.List sites) ->
      check Alcotest.int "json one entry per site" c.C.nsites (List.length sites)
  | _ -> Alcotest.fail "sites missing");
  check Alcotest.bool "listing rejects mis-sized collector" true
    (match
       Gpu_prof.Report.annotated_listing k (C.create ~nsites:(c.C.nsites + 1))
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Provenance                                                           *)
(* ------------------------------------------------------------------ *)

let test_provenance_end_to_end () =
  let bench = Kernels.Registry.find "R" in
  let v = T.intra_plus_lds in
  let golden = Harness.Run.run bench v in
  let plans =
    Fault.Campaign.plans ~n:6 ~target:Sim.Device.T_lds ~seed:7
      ~golden_cycles:golden.Harness.Run.cycles ()
  in
  let obs =
    List.map
      (fun plan ->
        let p = Prov.create () in
        let s = Harness.Run.run ~inject:plan ~provenance:p bench v in
        (s, p))
      plans
  in
  List.iter
    (fun ((s : Harness.Run.summary), p) ->
      check Alcotest.bool "prov applied iff fault applied"
        s.Harness.Run.inject_applied (Prov.applied p);
      if Prov.applied p then begin
        check Alcotest.bool "target is LDS" true
          (p.Prov.target = Some Prov.S_lds);
        check Alcotest.bool "bit in a word" true
          (p.Prov.bit >= 0 && p.Prov.bit < 32);
        check Alcotest.bool "inject cycle recorded" true
          (p.Prov.inject_cycle >= 0);
        check Alcotest.bool "described" true (p.Prov.desc <> "");
        check Alcotest.bool "to_string renders" true
          (contains (Prov.to_string p) "LDS")
      end;
      if s.Harness.Run.outcome = Sim.Device.Detected then begin
        check Alcotest.bool "detection recorded" true (Prov.detected p);
        check Alcotest.bool "a consuming site was seen" true
          (p.Prov.first_use <> None);
        match Prov.detect_distance p with
        | Some (di, dc) ->
            check Alcotest.bool "positive distances" true (di > 0 && dc > 0)
        | None -> Alcotest.fail "detected but no distance"
      end)
    obs;
  let applied = List.filter (fun (_, p) -> Prov.applied p) obs in
  check Alcotest.bool "some flips landed" true (applied <> []);
  let agg = Prov.aggregate (List.map snd obs) in
  check Alcotest.bool "aggregate names the structure" true
    (contains (Prov.agg_to_string agg) "LDS");
  (* the campaign-level summary sees the same records *)
  let cobs =
    List.map
      (fun ((s : Harness.Run.summary), p) ->
        {
          Fault.Campaign.oc = s.Harness.Run.outcome;
          output_ok = s.Harness.Run.verified;
          applied = s.Harness.Run.inject_applied;
          latency = s.Harness.Run.detection_latency;
          prov = Some p;
          san_clean = None;
        })
      obs
  in
  check Alcotest.bool "campaign summary nonempty" true
    (Fault.Campaign.provenance_summary cobs <> "")

let test_provenance_overwrite_is_terminal () =
  (* a record marked overwritten never also carries a first use; check
     over a VGPR campaign where dead-value masking is common *)
  let bench = Kernels.Registry.find "BlkSch" in
  let v = T.intra_plus_lds in
  let golden = Harness.Run.run bench v in
  let plans =
    Fault.Campaign.plans ~n:5 ~target:Sim.Device.T_vgpr ~seed:11
      ~golden_cycles:golden.Harness.Run.cycles ()
  in
  List.iter
    (fun plan ->
      let p = Prov.create () in
      ignore (Harness.Run.run ~inject:plan ~provenance:p bench v);
      if p.Prov.overwritten then
        check Alcotest.bool "overwritten implies never consumed" true
          (p.Prov.first_use = None))
    plans

(* ------------------------------------------------------------------ *)
(* Campaign latency percentiles                                         *)
(* ------------------------------------------------------------------ *)

let test_latency_percentiles () =
  let t = Fault.Campaign.tally_create () in
  check
    Alcotest.(option int)
    "empty median" None
    (Fault.Campaign.median_latency t);
  check Alcotest.(option int) "empty p99" None (Fault.Campaign.p99_latency t);
  check Alcotest.(option int) "empty max" None (Fault.Campaign.max_latency t);
  t.Fault.Campaign.latencies <- [ 9; 1; 7; 3; 5 ];
  check
    Alcotest.(option int)
    "median" (Some 5)
    (Fault.Campaign.median_latency t);
  check Alcotest.(option int) "p99 of 5" (Some 9) (Fault.Campaign.p99_latency t);
  check Alcotest.(option int) "max" (Some 9) (Fault.Campaign.max_latency t);
  t.Fault.Campaign.latencies <- List.init 200 (fun i -> i + 1);
  check
    Alcotest.(option int)
    "median of 1..200" (Some 100)
    (Fault.Campaign.median_latency t);
  check
    Alcotest.(option int)
    "p99 of 1..200" (Some 198)
    (Fault.Campaign.p99_latency t);
  t.Fault.Campaign.detected <- 3;
  t.Fault.Campaign.latencies <- [ 10; 20; 30 ];
  check Alcotest.bool "tally prints percentiles" true
    (contains (Fault.Campaign.tally_to_string t) "p50=20 p99=30 max=30")

(* ------------------------------------------------------------------ *)
(* Sink cap and streaming                                               *)
(* ------------------------------------------------------------------ *)

let ev i = Sink.Group_retire { cu = 0; group = i }

let test_sink_cap_bounds_memory () =
  let c = Sink.collector ~cap:5 () in
  let s = Sink.of_collector c in
  for i = 0 to 9 do
    s.Sink.emit ~at:i (ev i)
  done;
  check Alcotest.int "all emissions counted" 10 (Sink.count c);
  check Alcotest.int "only cap retained" 5 (List.length (Sink.records c));
  check Alcotest.int "rest dropped" 5 (Sink.dropped c);
  (* the retained records are the first cap, in order *)
  List.iteri
    (fun i r -> check Alcotest.int "prefix kept" i r.Sink.at)
    (Sink.records c);
  check Alcotest.bool "negative cap rejected" true
    (match Sink.collector ~cap:(-1) () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* uncapped collector never drops *)
  let u = Sink.collector () in
  let su = Sink.of_collector u in
  for i = 0 to 9 do
    su.Sink.emit ~at:i (ev i)
  done;
  check Alcotest.int "uncapped keeps all" 10 (List.length (Sink.records u));
  check Alcotest.int "uncapped drops none" 0 (Sink.dropped u)

let test_sink_of_channel_streams () =
  let path = Filename.temp_file "rmtgpu_sink" ".txt" in
  let oc = open_out path in
  let s = Sink.of_channel oc in
  s.Sink.emit ~at:3 (ev 1);
  s.Sink.emit ~at:4 (ev 2);
  close_out oc;
  let lines = String.split_on_char '\n' (read_file path) in
  Sys.remove path;
  check
    Alcotest.(list string)
    "streamed lines"
    [ "3: retire cu=0 group=1"; "4: retire cu=0 group=2"; "" ]
    lines

(* ------------------------------------------------------------------ *)
(* Atomic metrics write                                                 *)
(* ------------------------------------------------------------------ *)

let test_write_file_atomic () =
  let dir = Filename.temp_file "rmtgpu_metrics" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "BENCH_test.json" in
  Harness.Metrics.write_file path
    (Json.Obj [ ("schema", Json.Int 1); ("rev", Json.Str "a") ]);
  (* overwrite in place *)
  Harness.Metrics.write_file path
    (Json.Obj [ ("schema", Json.Int 1); ("rev", Json.Str "b") ]);
  (match Json.member "rev" (Json.parse (read_file path)) with
  | Some (Json.Str r) -> check Alcotest.string "overwritten" "b" r
  | _ -> Alcotest.fail "rev missing");
  (* no temp litter left behind *)
  check
    Alcotest.(list string)
    "only the target remains" [ "BENCH_test.json" ]
    (Array.to_list (Sys.readdir dir));
  Sys.remove path;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Perfdiff gate                                                        *)
(* ------------------------------------------------------------------ *)

module PD = Harness.Perfdiff

(* A minimal but schema-complete trajectory document. *)
let traj ~rev ~wall ~cycles ~valu =
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("rev", Json.Str rev);
      ("jobs", Json.Int 1);
      ( "experiments",
        Json.List
          [ Json.Obj [ ("name", Json.Str "fig2"); ("wall_s", Json.Float wall) ] ]
      );
      ( "runs",
        Json.List
          [
            Json.Obj
              [
                ("label", Json.Str "PS/Original");
                ( "counters",
                  Json.Obj
                    [
                      ("cycles", Json.Int cycles);
                      ("valu_busy", Json.Int valu);
                      ("valu_insts", Json.Int 999_999);
                    ] );
              ];
          ] );
    ]

let d ~old_doc ~new_doc =
  PD.diff ~old_path:"old.json" ~new_path:"new.json" old_doc new_doc

let test_perfdiff_identical_passes () =
  let doc = traj ~rev:"a" ~wall:1.0 ~cycles:1000 ~valu:500 in
  let fs = d ~old_doc:doc ~new_doc:doc in
  check Alcotest.bool "no findings" true (fs = []);
  check Alcotest.bool "no regression" false (PD.has_regression fs)

let test_perfdiff_flags_counter_regression () =
  let old_doc = traj ~rev:"a" ~wall:1.0 ~cycles:1000 ~valu:500 in
  let new_doc = traj ~rev:"b" ~wall:1.0 ~cycles:1050 ~valu:500 in
  let fs = d ~old_doc ~new_doc in
  check Alcotest.bool "regression flagged" true (PD.has_regression fs);
  (match List.find_opt (fun f -> f.PD.severity = PD.Regression) fs with
  | Some f ->
      check Alcotest.string "on the grown counter" "counters.cycles" f.PD.metric;
      check Alcotest.string "for the matched run" "PS/Original" f.PD.subject
  | None -> Alcotest.fail "no regression finding");
  (* 1% growth is inside the default 2% tolerance *)
  let small = traj ~rev:"b" ~wall:1.0 ~cycles:1010 ~valu:500 in
  check Alcotest.bool "1% growth tolerated" false
    (PD.has_regression (d ~old_doc ~new_doc:small));
  (* tightening the threshold flags it *)
  let tight = { PD.default_thresholds with PD.counter_rel = 0.005 } in
  check Alcotest.bool "tight threshold flags 1%" true
    (PD.has_regression
       (PD.diff ~thresholds:tight ~old_path:"o" ~new_path:"n" old_doc small));
  (* shape counters (valu_insts) are not gated, whatever they do *)
  check Alcotest.bool "valu_insts never gated" false
    (List.mem "counters.valu_insts" (List.map (fun f -> f.PD.metric) fs))

let test_perfdiff_flags_wall_regression () =
  let old_doc = traj ~rev:"a" ~wall:1.0 ~cycles:1000 ~valu:500 in
  let new_doc = traj ~rev:"b" ~wall:2.0 ~cycles:1000 ~valu:500 in
  let fs = d ~old_doc ~new_doc in
  check Alcotest.bool "2x wall flagged at 1.5x tolerance" true
    (PD.has_regression fs);
  let lax = { PD.default_thresholds with PD.wall_ratio = 3.0 } in
  check Alcotest.bool "3x tolerance passes it" false
    (PD.has_regression
       (PD.diff ~thresholds:lax ~old_path:"o" ~new_path:"n" old_doc new_doc))

let test_perfdiff_vanished_is_info_only () =
  let old_doc = traj ~rev:"a" ~wall:1.0 ~cycles:1000 ~valu:500 in
  let empty =
    Json.Obj
      [
        ("schema", Json.Int 1);
        ("rev", Json.Str "b");
        ("experiments", Json.List []);
        ("runs", Json.List []);
      ]
  in
  let fs = d ~old_doc ~new_doc:empty in
  check Alcotest.bool "vanished runs reported" true (fs <> []);
  check Alcotest.bool "but not as regressions" false (PD.has_regression fs);
  List.iter
    (fun f -> check Alcotest.bool "info severity" true (f.PD.severity = PD.Info))
    fs

(* Runs are matched by label: a repeated label (or experiment name)
   would gate only its first copy, so the document is rejected. *)
let test_perfdiff_rejects_duplicates () =
  let doc = traj ~rev:"a" ~wall:1.0 ~cycles:1000 ~valu:500 in
  let doubled key =
    match doc with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               match v with
               | Json.List [ x ] when k = key -> (k, Json.List [ x; x ])
               | _ -> (k, v))
             fields)
    | _ -> assert false
  in
  let rejected new_doc =
    match d ~old_doc:doc ~new_doc with
    | exception PD.Bad_file msg -> contains msg "duplicate"
    | _ -> false
  in
  check Alcotest.bool "two runs with one label rejected" true
    (rejected (doubled "runs"));
  check Alcotest.bool "repeated experiment name rejected" true
    (rejected (doubled "experiments"))

let test_perfdiff_files_and_report () =
  let dir = Filename.temp_file "rmtgpu_pd" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let old_path = Filename.concat dir "BENCH_a.json" in
  let new_path = Filename.concat dir "BENCH_b.json" in
  Harness.Metrics.write_file old_path
    (traj ~rev:"a" ~wall:1.0 ~cycles:1000 ~valu:500);
  Harness.Metrics.write_file new_path
    (traj ~rev:"b" ~wall:1.0 ~cycles:2000 ~valu:500);
  let text, failed = PD.report ~old_path ~new_path () in
  check Alcotest.bool "gate failed" true failed;
  check Alcotest.bool "report names both revs" true
    (contains text "(a)" && contains text "(b)");
  check Alcotest.bool "report shows the regression" true
    (contains text "REGRESSION");
  check Alcotest.bool "report shows the verdict" true
    (contains text "gate: FAIL");
  let ok_text, ok_failed = PD.report ~old_path ~new_path:old_path () in
  check Alcotest.bool "self-diff passes" false ok_failed;
  check Alcotest.bool "self-diff says PASS" true (contains ok_text "gate: PASS");
  (* malformed input raises Bad_file, it does not pass silently *)
  let bad = Filename.concat dir "bad.json" in
  let oc = open_out bad in
  output_string oc "{ not json";
  close_out oc;
  check Alcotest.bool "Bad_file on garbage" true
    (match PD.diff_files ~old_path ~new_path:bad () with
    | exception PD.Bad_file _ -> true
    | _ -> false);
  List.iter Sys.remove [ old_path; new_path; bad ];
  Unix.rmdir dir

let suite =
  [
    tc "prof: sums reconcile across variants and jobs" `Slow
      test_reconciles_across_variants_and_jobs;
    tc "prof: profiling does not perturb" `Quick test_profiling_does_not_perturb;
    tc "prof: mis-sized collector rejected" `Quick
      test_wrong_size_collector_rejected;
    tc "prof: site numbering deterministic" `Quick
      test_site_numbering_deterministic;
    tc "prof: report agrees with collector" `Quick
      test_report_agrees_with_collector;
    tc "prov: LDS campaign end-to-end" `Slow test_provenance_end_to_end;
    tc "prov: overwrite is terminal" `Slow test_provenance_overwrite_is_terminal;
    tc "campaign: latency percentiles" `Quick test_latency_percentiles;
    tc "sink: cap bounds memory" `Quick test_sink_cap_bounds_memory;
    tc "sink: of_channel streams" `Quick test_sink_of_channel_streams;
    tc "metrics: write_file atomic" `Quick test_write_file_atomic;
    tc "perfdiff: identical passes" `Quick test_perfdiff_identical_passes;
    tc "perfdiff: counter regression" `Quick
      test_perfdiff_flags_counter_regression;
    tc "perfdiff: wall regression" `Quick test_perfdiff_flags_wall_regression;
    tc "perfdiff: vanished is info" `Quick test_perfdiff_vanished_is_info_only;
    tc "perfdiff: files and report" `Quick test_perfdiff_files_and_report;
    tc "perfdiff: duplicate labels rejected" `Quick
      test_perfdiff_rejects_duplicates;
  ]
