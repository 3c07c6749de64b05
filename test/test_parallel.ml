(* Tests for the parallel harness: the domain pool (ordering, inline
   sequential mode, exception propagation), the run-cache fingerprint
   (window/usage-override runs must never collide), campaign map
   equivalence, and j-independence of report text. *)

module T = Rmt_core.Transform

let check = Alcotest.check
let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_ordering () =
  let pool = Harness.Pool.create ~jobs:4 () in
  let xs = List.init 64 Fun.id in
  let ys = Harness.Pool.map pool (fun i -> (i * i) - i) xs in
  Harness.Pool.shutdown pool;
  check
    Alcotest.(list int)
    "submission-ordered results"
    (List.map (fun i -> (i * i) - i) xs)
    ys

let test_pool_sequential_inline () =
  (* jobs=1 spawns no domain: tasks run inline, at submission *)
  let pool = Harness.Pool.create ~jobs:1 () in
  check Alcotest.int "jobs clamped" 1 (Harness.Pool.jobs pool);
  let trace = ref [] in
  let futures =
    List.map
      (fun i ->
        Harness.Pool.submit pool (fun () ->
            trace := i :: !trace;
            i * 10))
      [ 1; 2; 3 ]
  in
  check Alcotest.(list int) "ran inline in submission order" [ 3; 2; 1 ] !trace;
  check
    Alcotest.(list int)
    "futures hold the results" [ 10; 20; 30 ]
    (List.map Harness.Pool.await futures);
  Harness.Pool.shutdown pool

exception Boom of int

let test_pool_exception_propagation () =
  let pool = Harness.Pool.create ~jobs:3 () in
  let observed =
    try
      ignore
        (Harness.Pool.map pool
           (fun i -> if i = 2 then raise (Boom i) else i)
           [ 0; 1; 2; 3 ]);
      None
    with Boom i -> Some i
  in
  Harness.Pool.shutdown pool;
  check
    Alcotest.(option int)
    "worker exception re-raised at await" (Some 2) observed

let test_pool_more_tasks_than_workers () =
  let pool = Harness.Pool.create ~jobs:2 () in
  let ys = Harness.Pool.map pool (fun i -> i + 1) (List.init 200 Fun.id) in
  Harness.Pool.shutdown pool;
  check Alcotest.int "all 200 tasks completed" 200 (List.length ys);
  check Alcotest.int "last result" 200 (List.nth ys 199)

let pool_suite =
  [
    tc "pool: submission-ordered map" `Quick test_pool_ordering;
    tc "pool: jobs=1 runs inline" `Quick test_pool_sequential_inline;
    tc "pool: exception propagation" `Quick test_pool_exception_propagation;
    tc "pool: queue longer than pool" `Quick test_pool_more_tasks_than_workers;
  ]

(* ------------------------------------------------------------------ *)
(* Run-cache fingerprint                                               *)
(* ------------------------------------------------------------------ *)

(* Regression: the old cache key was (bench, variant, tag, scale), so a
   windowed fig5-style run could collide with a fig2 run of the same
   bench/variant whenever callers forgot a distinguishing tag. The key
   must fingerprint window_cycles and usage_override themselves. *)
let test_cache_key_window () =
  let ctx = Harness.Experiments.create_ctx ~jobs:1 () in
  let b = Kernels.Registry.find "PS" in
  let s1 = Harness.Experiments.get ctx b T.Original in
  let s2 = Harness.Experiments.get ctx ~window_cycles:500 b T.Original in
  let s3 = Harness.Experiments.get ctx b T.Original in
  let s4 = Harness.Experiments.get ctx ~window_cycles:500 b T.Original in
  Harness.Experiments.shutdown ctx;
  check Alcotest.bool "windowed run is a distinct summary" true (s1 != s2);
  check Alcotest.bool "un-windowed key still cached" true (s1 == s3);
  check Alcotest.bool "windowed key cached too" true (s2 == s4);
  check Alcotest.int "same simulated cycles either way" s1.Harness.Run.cycles
    s2.Harness.Run.cycles;
  check Alcotest.bool "windowed run sampled power windows" true
    (Array.length s2.Harness.Run.windows > Array.length s1.Harness.Run.windows)

let test_cache_key_usage_override () =
  let ctx = Harness.Experiments.create_ctx ~jobs:1 () in
  let b = Kernels.Registry.find "PS" in
  let s1 = Harness.Experiments.get ctx b T.Original in
  let u = { s1.Harness.Run.usage with Gpu_ir.Regpressure.vgprs = 200 } in
  let s2 = Harness.Experiments.get ctx ~usage_override:u b T.Original in
  let s3 = Harness.Experiments.get ctx ~usage_override:u b T.Original in
  Harness.Experiments.shutdown ctx;
  check Alcotest.bool "inflated run is a distinct summary" true (s1 != s2);
  check Alcotest.bool "inflated key cached" true (s2 == s3);
  check Alcotest.bool "inflation lowered occupancy" true
    (s2.Harness.Run.occupancy.Gpu_sim.Occupancy.waves_per_cu
    <= s1.Harness.Run.occupancy.Gpu_sim.Occupancy.waves_per_cu)

(* The device config is keyed structurally: an equal config built
   separately is the same run (wavesize's wave-64 cells reuse fig2's),
   a different one is a distinct run, cached on repeat. *)
let test_cache_key_cfg () =
  let ctx = Harness.Experiments.create_ctx ~jobs:1 () in
  let b = Kernels.Registry.find "PS" in
  let rr () =
    { Gpu_sim.Config.default with sched_policy = Gpu_sim.Config.Round_robin }
  in
  let s1 = Harness.Experiments.get ctx b T.Original in
  let s2 =
    Harness.Experiments.get ctx
      ~cfg:{ Gpu_sim.Config.default with wave_size = 64 }
      b T.Original
  in
  let s3 = Harness.Experiments.get ctx ~cfg:(rr ()) b T.Original in
  let s4 = Harness.Experiments.get ctx ~cfg:(rr ()) b T.Original in
  Harness.Experiments.shutdown ctx;
  check Alcotest.bool "equal config shares the entry" true (s1 == s2);
  check Alcotest.bool "round-robin run is a distinct summary" true (s1 != s3);
  check Alcotest.bool "round-robin key cached" true (s3 == s4)

let test_cache_key_optimize () =
  let ctx = Harness.Experiments.create_ctx ~jobs:1 () in
  let b = Kernels.Registry.find "PS" in
  let s1 = Harness.Experiments.get ctx b T.intra_plus_lds in
  let s2 = Harness.Experiments.get ctx ~optimize:true b T.intra_plus_lds in
  let s3 = Harness.Experiments.get ctx ~optimize:true b T.intra_plus_lds in
  let s4 = Harness.Experiments.get ctx ~optimize:false b T.intra_plus_lds in
  Harness.Experiments.shutdown ctx;
  check Alcotest.bool "optimized run is a distinct summary" true (s1 != s2);
  check Alcotest.bool "optimized key cached" true (s2 == s3);
  check Alcotest.bool "explicit default is the plain run" true (s1 == s4)

(* Every axis off its default adds a label component, so labels stay
   unique; runs on the context's device with optimize off keep the
   labels earlier trajectories recorded. *)
let test_cache_labels () =
  let ctx = Harness.Experiments.create_ctx ~jobs:1 () in
  let b = Kernels.Registry.find "PS" in
  let get = Harness.Experiments.get ctx in
  let s = get b T.Original in
  let u = { s.Harness.Run.usage with Gpu_ir.Regpressure.vgprs = 200 } in
  ignore (get ~window_cycles:500 b T.Original);
  ignore (get ~usage_override:u b T.Original);
  ignore (get ~usage_override:{ u with vgprs = 240 } b T.Original);
  ignore
    (get
       ~cfg:{ Gpu_sim.Config.default with sched_policy = Gpu_sim.Config.Round_robin }
       b T.Original);
  ignore (get ~cfg:{ Gpu_sim.Config.default with wave_size = 32 } b T.Original);
  ignore (get ~optimize:true b T.Original);
  let labels = List.map fst (Harness.Experiments.cached_summaries ctx) in
  Harness.Experiments.shutdown ctx;
  check Alcotest.int "one label per run" 7
    (List.length (List.sort_uniq compare labels));
  List.iter
    (fun l -> check Alcotest.bool ("label " ^ l) true (List.mem l labels))
    [ "PS/Original"; "PS/Original/w500"; "PS/Original/opt" ]

let cache_suite =
  [
    tc "cache key: window_cycles fingerprinted" `Quick test_cache_key_window;
    tc "cache key: usage_override fingerprinted" `Quick
      test_cache_key_usage_override;
    tc "cache key: config keyed structurally" `Quick test_cache_key_cfg;
    tc "cache key: optimize fingerprinted" `Quick test_cache_key_optimize;
    tc "cache key: labels unique" `Quick test_cache_labels;
  ]

(* ------------------------------------------------------------------ *)
(* Campaign map hook                                                   *)
(* ------------------------------------------------------------------ *)

let test_campaign_map_equivalence () =
  (* a synthetic experiment whose observations depend only on the plan,
     so sequential and pooled campaigns must tally identically *)
  let experiment =
    {
      Fault.Campaign.run =
        (fun ~inject ->
          let plan = Option.get inject in
          let sdc = plan.Gpu_sim.Device.iseed mod 3 = 0 in
          {
            Fault.Campaign.oc = Gpu_sim.Device.Finished;
            output_ok = not sdc;
            applied = plan.Gpu_sim.Device.at_cycle mod 5 <> 0;
            latency = None;
            prov = None;
            san_clean = None;
          });
      golden_cycles = 10_000;
    }
  in
  let target = Gpu_sim.Device.T_vgpr in
  let seq = Fault.Campaign.run ~n:16 ~target ~seed:42 experiment in
  let pool = Harness.Pool.create ~jobs:4 () in
  let par =
    Fault.Campaign.run ~n:16 ~map:(Harness.Pool.map pool) ~target ~seed:42
      experiment
  in
  Harness.Pool.shutdown pool;
  check Alcotest.string "identical tallies"
    (Fault.Campaign.tally_to_string seq)
    (Fault.Campaign.tally_to_string par);
  check Alcotest.int "identical not_applied" seq.Fault.Campaign.not_applied
    par.Fault.Campaign.not_applied

let campaign_suite =
  [ tc "campaign: map hook is order-safe" `Quick test_campaign_map_equivalence ]

(* ------------------------------------------------------------------ *)
(* Determinism: report text is byte-identical at any -j                *)
(* ------------------------------------------------------------------ *)

(* Digest of every fig2 run (cycles, all counters, power windows,
   outcome, verification), recorded from the continuation-stack
   interpreter that preceded the decoded wave engine. *)
let fig2_runs_digest = "e2407b092bca93f418659b485b9ed5ce"

let test_fig2_j_independence () =
  let fig2_at jobs =
    let ctx = Harness.Experiments.create_ctx ~jobs () in
    let text = Harness.Experiments.fig2 ctx in
    let runs = Harness.Experiments.cached_summaries ctx in
    Harness.Experiments.shutdown ctx;
    (text, runs)
  in
  let t1, runs = fig2_at 1 in
  let t4, _ = fig2_at 4 in
  check Alcotest.bool "fig2 text is non-trivial" true
    (String.length t1 > 200);
  check Alcotest.string "fig2 -j1 == fig2 -j4" t1 t4;
  let b = Buffer.create 65536 in
  List.iter
    (fun (label, s) ->
      Buffer.add_string b label;
      Buffer.add_char b '\n';
      Pin.add_summary b s)
    runs;
  check Alcotest.int "fig2 runs" 48 (List.length runs);
  check Alcotest.string "fig2 runs digest" fig2_runs_digest (Pin.hex b)

let determinism_suite =
  [ tc "determinism: fig2 at -j1 vs -j4" `Slow test_fig2_j_independence ]

let suite = pool_suite @ cache_suite @ campaign_suite @ determinism_suite
