(* Tests for the harness: multi-pass accumulation, slowdown computation,
   experiment caching and the report renderers. *)

module T = Rmt_core.Transform

let check = Alcotest.check
let tc = Alcotest.test_case

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_multipass_accumulation () =
  let bench = Kernels.Registry.find "FWT" in
  let s = Harness.Run.run bench T.Original in
  check Alcotest.int "13 steps recorded" 13 s.Harness.Run.steps;
  check Alcotest.bool "counters summed over passes" true
    (s.Harness.Run.counters.Gpu_sim.Counters.groups_launched >= 13);
  check Alcotest.int "cycles equal counter cycles"
    s.Harness.Run.cycles s.Harness.Run.counters.Gpu_sim.Counters.cycles

let test_slowdown () =
  let bench = Kernels.Registry.find "PS" in
  let b = Harness.Run.run bench T.Original in
  let v = Harness.Run.run bench T.intra_plus_lds in
  let s = Harness.Run.slowdown ~base:b v in
  check Alcotest.bool "slowdown positive" true (s > 0.9 && s < 10.0)

let test_experiment_cache () =
  let ctx = Harness.Experiments.create_ctx () in
  let bench = Kernels.Registry.find "PS" in
  let s1 = Harness.Experiments.get ctx bench T.Original in
  let s2 = Harness.Experiments.get ctx bench T.Original in
  check Alcotest.bool "cached result is reused" true (s1 == s2)

let test_table_renderers () =
  let t1 = Harness.Experiments.table1 () in
  check Alcotest.bool "table1 totals 21%" true (string_contains t1 "21.0% overhead");
  check Alcotest.bool "table1 has VRF row" true
    (string_contains t1 "Vector register file");
  let t2 = Harness.Experiments.table2 () in
  check Alcotest.bool "table2 lists both flavors" true
    (string_contains t2 "Intra-Group+LDS" && string_contains t2 "Intra-Group-LDS");
  let t3 = Harness.Experiments.table3 () in
  check Alcotest.bool "table3 lists inter" true (string_contains t3 "Inter-Group");
  let f8 = Harness.Experiments.fig8 () in
  check Alcotest.bool "fig8 shows duplicated lanes" true
    (string_contains f8 "t0=10 t1=10")

let test_report_bar () =
  check Alcotest.string "zero bar" "" (Harness.Report.bar 0.0);
  check Alcotest.bool "full bar caps" true
    (String.length (Harness.Report.bar ~width:10 ~full:2.0 5.0) = 10);
  check Alcotest.bool "negative bar signed" true
    (String.length (Harness.Report.signed_bar (-1.0)) > 1)

let test_extras_reset () =
  (* Inter-Group extras must reset the counter between launches *)
  let dev = Gpu_sim.Device.create Gpu_sim.Config.small in
  let nd = Gpu_sim.Geom.make_ndrange 128 64 in
  let extras = T.make_extras T.inter_group dev ~nd in
  match extras.T.ex_args with
  | [ Gpu_sim.Device.A_buf counter; Gpu_sim.Device.A_buf _comm ] ->
      Gpu_sim.Device.write_i32 dev counter 0 99;
      extras.T.reset ();
      check Alcotest.int "counter rezeroed" 0 (Gpu_sim.Device.read_i32 dev counter 0)
  | _ -> Alcotest.fail "expected counter and comm buffers"

let base_suite =
  [
    tc "multipass accumulation" `Quick test_multipass_accumulation;
    tc "slowdown" `Quick test_slowdown;
    tc "experiment cache" `Quick test_experiment_cache;
    tc "table renderers" `Quick test_table_renderers;
    tc "report bars" `Quick test_report_bar;
    tc "extras reset" `Quick test_extras_reset;
  ]

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let test_recovery_roundtrip () =
  (* checkpoint/restore must undo in-place mutation *)
  let dev = Gpu_sim.Device.create Gpu_sim.Config.small in
  let buf = Gpu_sim.Device.alloc dev 64 in
  Gpu_sim.Device.fill_i32 dev buf 16 7;
  let cp = Harness.Recovery.checkpoint dev [ buf ] in
  Gpu_sim.Device.fill_i32 dev buf 16 99;
  Harness.Recovery.restore dev cp;
  check Alcotest.int "restored" 7 (Gpu_sim.Device.read_i32 dev buf 3)

(* End-to-end: an in-place kernel under RMT, a fault on the first launch
   only; recovery must roll back and produce the correct output. *)
let test_recovery_end_to_end () =
  let open Gpu_ir in
  let b = Builder.create "inplace_double" in
  let data = Builder.buffer_param b "data" in
  let gid = Builder.global_id b 0 in
  let v = Builder.gload_elem b data gid in
  Builder.gstore_elem b data gid (Builder.mul b v (Builder.imm 2));
  let k0 = Builder.finish b in
  let k = Rmt_core.Transform.apply Rmt_core.Transform.intra_plus_lds ~local_items:64 k0 in
  let n = 256 in
  (* find a seed whose injection is detected, then drive recovery *)
  let attempt_recovery seed =
    let dev = Gpu_sim.Device.create Gpu_sim.Config.small in
    let buf = Gpu_sim.Device.alloc dev (n * 4) in
    for i = 0 to n - 1 do Gpu_sim.Device.write_i32 dev buf i (i + 1) done;
    let launches = ref 0 in
    let launch () =
      incr launches;
      let inject =
        if !launches = 1 then
          Some { Gpu_sim.Device.at_cycle = 30 + (seed * 17); target = Gpu_sim.Device.T_vgpr; iseed = seed }
        else None
      in
      let opts = { Gpu_sim.Device.default_opts with Gpu_sim.Device.inject } in
      Gpu_sim.Device.launch ~opts dev k
        ~nd:(Rmt_core.Transform.map_ndrange Rmt_core.Transform.intra_plus_lds
               (Gpu_sim.Geom.make_ndrange n 64))
        ~args:[ Gpu_sim.Device.A_buf buf ]
    in
    let r = Harness.Recovery.run_with_recovery dev ~buffers:[ buf ] ~launch in
    let correct = ref true in
    for i = 0 to n - 1 do
      if Gpu_sim.Device.read_i32 dev buf i <> 2 * (i + 1) then correct := false
    done;
    (r, !correct)
  in
  let found = ref false in
  let seed = ref 1 in
  while (not !found) && !seed < 80 do
    let r, correct = attempt_recovery !seed in
    if r.Harness.Recovery.recovered then begin
      found := true;
      check Alcotest.bool "recovered run has correct output" true correct;
      check Alcotest.bool "at least two attempts" true
        (List.length r.Harness.Recovery.attempts >= 2);
      check Alcotest.bool "total cycles include the aborted attempt" true
        (r.Harness.Recovery.total_cycles
        > (List.hd (List.rev r.Harness.Recovery.attempts)).Harness.Recovery.a_cycles)
    end
    else
      (* no detection for this seed: output must still be correct *)
      check Alcotest.bool "undetected seed still correct" true correct;
    incr seed
  done;
  check Alcotest.bool "some seed triggered detection+recovery" true !found

let recovery_suite =
  [
    tc "recovery: checkpoint/restore" `Quick test_recovery_roundtrip;
    tc "recovery: end to end" `Quick test_recovery_end_to_end;
  ]



(* ------------------------------------------------------------------ *)
(* Extension experiments                                                *)
(* ------------------------------------------------------------------ *)

let test_naive_duplication () =
  let bench = Kernels.Registry.find "PS" in
  let base = Harness.Run.run bench T.Original in
  let nv = Harness.Run.run_naive_duplication bench in
  let s = Harness.Run.slowdown ~base nv in
  check Alcotest.bool
    (Printf.sprintf "naive duplication ~2x (got %.2f)" s)
    true
    (s > 1.7 && s < 2.3);
  check Alcotest.int "twice the launches" (2 * base.Harness.Run.steps)
    nv.Harness.Run.steps

let test_spearman () =
  check (Alcotest.float 1e-9) "identical ranking" 1.0
    (Harness.Experiments.spearman [ 1.0; 2.0; 3.0; 4.0 ] [ 10.0; 20.0; 30.0; 40.0 ]);
  check (Alcotest.float 1e-9) "reversed ranking" (-1.0)
    (Harness.Experiments.spearman [ 1.0; 2.0; 3.0 ] [ 9.0; 5.0; 1.0 ])

let test_sched_policy_changes_schedule () =
  (* both policies must produce correct results; timings may differ *)
  let bench = Kernels.Registry.find "R" in
  let run policy =
    Harness.Run.run
      ~cfg:{ Gpu_sim.Config.default with Gpu_sim.Config.sched_policy = policy }
      bench T.intra_plus_lds
  in
  let g = run Gpu_sim.Config.Greedy in
  let r = run Gpu_sim.Config.Round_robin in
  check Alcotest.bool "greedy verified" true g.Harness.Run.verified;
  check Alcotest.bool "round-robin verified" true r.Harness.Run.verified

(* The one experiment table: unique names, "all" is the whole registry,
   and a typo is an error rather than an empty selection. *)
let test_registry () =
  let names = List.map fst Harness.Experiments.registry in
  check Alcotest.int "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let selected ns =
    match Harness.Experiments.select ns with
    | Ok es -> List.map fst es
    | Error msg -> Alcotest.fail msg
  in
  check
    Alcotest.(list string)
    "all = registry" names (selected [ "all" ]);
  check
    Alcotest.(list string)
    "order kept" [ "fig2"; "table1" ] (selected [ "fig2"; "table1" ]);
  match Harness.Experiments.select [ "table1"; "fgi2" ] with
  | Ok _ -> Alcotest.fail "unknown name accepted"
  | Error msg ->
      check Alcotest.bool "names the typo" true (string_contains msg "fgi2");
      check Alcotest.bool "lists registry names" true
        (List.for_all (string_contains msg) names)

let extension_suite =
  [
    tc "experiment registry" `Quick test_registry;
    tc "naive duplication" `Quick test_naive_duplication;
    tc "spearman" `Quick test_spearman;
    tc "sched policy" `Quick test_sched_policy_changes_schedule;
  ]

let suite = base_suite @ recovery_suite @ extension_suite
