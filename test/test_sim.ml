(* Tests for the gpu_sim library: cache model, geometry, occupancy, the
   wavefront interpreter (arithmetic semantics, divergence, barriers,
   atomics, swizzles, partial wavefronts), the memory system and the
   device scheduler (watchdog, crashes, counters). *)

open Gpu_ir
module Sim = Gpu_sim

let check = Alcotest.check
let tc = Alcotest.test_case

(* Run a 1-buffer kernel over [n] items (work-group [wg]) and return a
   reader for the output buffer. *)
let run_kernel ?(cfg = Sim.Config.small) ?(n = 64) ?(wg = 64) ?(words = 64)
    ?(init = fun _ -> 0) build =
  let b = Builder.create "t" in
  let out = Builder.buffer_param b "out" in
  build b out;
  let k = Builder.finish b in
  let dev = Sim.Device.create cfg in
  let buf = Sim.Device.alloc dev (words * 4) in
  for i = 0 to words - 1 do
    Sim.Device.write_i32 dev buf i (init i)
  done;
  let r =
    Sim.Device.launch dev k ~nd:(Sim.Geom.make_ndrange n wg)
      ~args:[ Sim.Device.A_buf buf ]
  in
  (r, fun i -> Sim.Device.read_i32 dev buf i)

(* ------------------------------------------------------------------ *)
(* Cache model                                                         *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_miss () =
  let c = Sim.Cache.create ~bytes:1024 ~line_bytes:64 ~assoc:2 in
  check Alcotest.bool "cold miss" false (Sim.Cache.access c 0);
  check Alcotest.bool "hit after fill" true (Sim.Cache.access c 0);
  check Alcotest.bool "distinct line misses" false (Sim.Cache.access c 64)

let test_cache_lru_eviction () =
  (* 1024 B / 64 B lines / 2-way = 8 sets; lines mapping to set 0 are
     multiples of 512 *)
  let c = Sim.Cache.create ~bytes:1024 ~line_bytes:64 ~assoc:2 in
  ignore (Sim.Cache.access c 0);
  ignore (Sim.Cache.access c 512);
  ignore (Sim.Cache.access c 0);  (* touch 0: 512 is now LRU *)
  let evicted = ref (-1) in
  ignore (Sim.Cache.access ~on_evict:(fun l -> evicted := l) c 1024);
  check Alcotest.int "LRU way evicted" 512 !evicted;
  check Alcotest.bool "survivor still resident" true (Sim.Cache.probe c 0);
  check Alcotest.bool "victim gone" false (Sim.Cache.probe c 512)

let test_cache_invalidate () =
  let c = Sim.Cache.create ~bytes:1024 ~line_bytes:64 ~assoc:2 in
  ignore (Sim.Cache.access c 128);
  Sim.Cache.invalidate c 128;
  check Alcotest.bool "invalidated" false (Sim.Cache.probe c 128)

let test_cache_random_resident () =
  let c = Sim.Cache.create ~bytes:1024 ~line_bytes:64 ~assoc:2 in
  check Alcotest.bool "empty cache has no lines" true
    (Sim.Cache.random_resident_line c ~seed:3 = None);
  ignore (Sim.Cache.access c 192);
  check Alcotest.bool "finds the only line" true
    (Sim.Cache.random_resident_line c ~seed:3 = Some 192)

(* ------------------------------------------------------------------ *)
(* Geometry                                                            *)
(* ------------------------------------------------------------------ *)

let test_geom_decomposition () =
  let nd = Sim.Geom.make_ndrange 128 8 ~gy:32 ~ly:4 in
  check Alcotest.int "groups" (16 * 8) (Sim.Geom.total_groups nd);
  check Alcotest.int "items per group" 32 (Sim.Geom.group_items nd);
  let view = { Sim.Geom.nd; gcoord = Sim.Geom.group_coord nd 17 } in
  (* group 17 with 16 groups in x => (1, 1, 0) *)
  check Alcotest.int "gx" 1 view.Sim.Geom.gcoord.(0);
  check Alcotest.int "gy" 1 view.Sim.Geom.gcoord.(1);
  (* flat lid 13 => lid0 = 5, lid1 = 1 *)
  check Alcotest.int "lid0" 5 (Sim.Geom.local_id_of_flat view ~flat:13 0);
  check Alcotest.int "lid1" 1 (Sim.Geom.local_id_of_flat view ~flat:13 1);
  check Alcotest.int "gid0" (8 + 5) (Sim.Geom.global_id_of_flat view ~flat:13 0)

let test_geom_validation () =
  Alcotest.check_raises "indivisible range rejected"
    (Invalid_argument
       "NDRange dim 0: global size 100 not divisible by local size 64")
    (fun () -> Sim.Geom.validate (Sim.Geom.make_ndrange 100 64))

(* ------------------------------------------------------------------ *)
(* Occupancy                                                           *)
(* ------------------------------------------------------------------ *)

let test_occupancy_limits () =
  let cfg = Sim.Config.default in
  let base : Regpressure.usage = { vgprs = 10; sgprs = 20; lds = 0 } in
  let o = Sim.Occupancy.compute cfg ~usage:base ~group_items:64 in
  check Alcotest.int "group slots bind small kernels" cfg.max_groups_per_cu
    o.Sim.Occupancy.groups_per_cu;
  (* VGPR-bound: 80 VGPRs leave 3 waves per SIMD = 12 waves per CU *)
  let o2 =
    Sim.Occupancy.compute cfg ~usage:{ base with vgprs = 80 } ~group_items:256
  in
  check Alcotest.int "vgpr-bound waves" 12 o2.Sim.Occupancy.waves_per_cu;
  check Alcotest.bool "limited by VGPR" true
    (o2.Sim.Occupancy.limiter = Sim.Occupancy.L_vgpr);
  (* LDS-bound *)
  let o3 =
    Sim.Occupancy.compute cfg ~usage:{ base with lds = 6000 } ~group_items:64
  in
  check Alcotest.int "lds-bound groups" (cfg.lds_per_cu / 6000)
    o3.Sim.Occupancy.groups_per_cu

(* ------------------------------------------------------------------ *)
(* Execution semantics                                                 *)
(* ------------------------------------------------------------------ *)

let test_integer_arith () =
  let r, read =
    run_kernel (fun b out ->
        let gid = Builder.global_id b 0 in
        let v =
          Builder.add b
            (Builder.mul b gid (Builder.imm 3))
            (Builder.ashr b (Builder.imm (-8)) (Builder.imm 1))
        in
        Builder.gstore_elem b out gid v)
  in
  check Alcotest.bool "finished" true (r.Sim.Device.outcome = Sim.Device.Finished);
  for i = 0 to 63 do
    check Alcotest.int "3*i - 4" ((3 * i) - 4) (read i)
  done

let test_unsigned_ops () =
  let _, read =
    run_kernel ~n:4 ~wg:4 (fun b out ->
        let gid = Builder.global_id b 0 in
        (* (-1) as unsigned divided by 2 *)
        let v = Builder.div_u b (Builder.imm (-1)) (Builder.imm 2) in
        let w = Builder.lshr b (Builder.imm (-2)) (Builder.imm 1) in
        Builder.gstore_elem b out gid (Builder.sub b v (Builder.sub b v w)))
  in
  check Alcotest.int "lshr of -2 by 1" 0x7FFFFFFF (read 0)

let test_float_arith () =
  let _, read =
    run_kernel ~n:8 ~wg:8 (fun b out ->
        let gid = Builder.global_id b 0 in
        let f = Builder.s32_to_f32 b gid in
        let v = Builder.fmul b (Builder.fadd b f (Builder.immf 0.5)) (Builder.immf 2.0) in
        Builder.gstore_elem b out gid (Builder.f32_to_s32 b v))
  in
  for i = 0 to 7 do
    check Alcotest.int "2*(i+0.5) truncated" ((2 * i) + 1) (read i)
  done

let test_select_and_cmp () =
  let _, read =
    run_kernel ~n:8 ~wg:8 (fun b out ->
        let gid = Builder.global_id b 0 in
        let c = Builder.lt_s b gid (Builder.imm 4) in
        Builder.gstore_elem b out gid
          (Builder.select b c (Builder.imm 100) (Builder.imm 200)))
  in
  check Alcotest.int "lane 0 selected" 100 (read 0);
  check Alcotest.int "lane 7 not selected" 200 (read 7)

let test_divergent_if () =
  let _, read =
    run_kernel (fun b out ->
        let gid = Builder.global_id b 0 in
        let parity = Builder.and_ b gid (Builder.imm 1) in
        Builder.if_ b
          (Builder.eq b parity (Builder.imm 0))
          (fun () -> Builder.gstore_elem b out gid (Builder.imm 1))
          (fun () -> Builder.gstore_elem b out gid (Builder.imm 2)))
  in
  for i = 0 to 63 do
    check Alcotest.int "branch by parity" (1 + (i land 1)) (read i)
  done

let test_divergent_loop_trip_counts () =
  (* lane i iterates i times: tests per-lane loop exit *)
  let _, read =
    run_kernel (fun b out ->
        let gid = Builder.global_id b 0 in
        let count = Builder.cell b (Builder.imm 0) in
        let i = Builder.cell b (Builder.imm 0) in
        Builder.while_ b
          (fun () -> Builder.lt_s b (Builder.get i) gid)
          (fun () ->
            Builder.set b count (Builder.add b (Builder.get count) (Builder.imm 2));
            Builder.set b i (Builder.add b (Builder.get i) (Builder.imm 1)));
        Builder.gstore_elem b out gid (Builder.get count))
  in
  for i = 0 to 63 do
    check Alcotest.int "2*i" (2 * i) (read i)
  done

let test_nested_control () =
  let _, read =
    run_kernel (fun b out ->
        let gid = Builder.global_id b 0 in
        let acc = Builder.cell b (Builder.imm 0) in
        Builder.for_ b ~lo:(Builder.imm 0) ~hi:(Builder.imm 4)
          ~step:(Builder.imm 1) (fun j ->
            Builder.when_ b
              (Builder.eq b
                 (Builder.and_ b (Builder.add b gid j) (Builder.imm 1))
                 (Builder.imm 0))
              (fun () ->
                Builder.set b acc (Builder.add b (Builder.get acc) (Builder.imm 1))));
        Builder.gstore_elem b out gid (Builder.get acc))
  in
  (* for every lane, exactly 2 of the 4 iterations have even gid+j *)
  for i = 0 to 63 do
    check Alcotest.int "two even iterations" 2 (read i)
  done

let test_barrier_communication () =
  (* reverse a work-group through LDS: requires a working barrier across
     the group's two wavefronts *)
  let _, read =
    run_kernel ~n:128 ~wg:128 ~words:128 (fun b out ->
        let lds = Builder.lds_alloc b "x" (128 * 4) in
        let lid = Builder.local_id b 0 in
        let slot i = Builder.add b lds (Builder.shl b i (Builder.imm 2)) in
        Builder.lstore b (slot lid) lid;
        Builder.barrier b;
        let rev = Builder.sub b (Builder.imm 127) lid in
        Builder.gstore_elem b out lid (Builder.lload b (slot rev)))
  in
  for i = 0 to 127 do
    check Alcotest.int "reversed" (127 - i) (read i)
  done

let test_global_atomics () =
  let r, read =
    run_kernel ~n:128 ~wg:64 ~words:1 (fun b out ->
        ignore (Builder.atomic_add b Types.Global out (Builder.imm 1)))
  in
  check Alcotest.bool "finished" true (r.Sim.Device.outcome = Sim.Device.Finished);
  check Alcotest.int "128 increments" 128 (read 0)

let test_local_atomics () =
  let _, read =
    run_kernel ~n:64 ~wg:64 ~words:1 (fun b out ->
        let lds = Builder.lds_alloc b "ctr" 4 in
        let lid = Builder.local_id b 0 in
        ignore (Builder.atomic_add b Types.Local lds (Builder.imm 1));
        Builder.barrier b;
        Builder.when_ b (Builder.eq b lid (Builder.imm 0)) (fun () ->
            Builder.gstore_elem b out (Builder.imm 0) (Builder.lload b lds)))
  in
  check Alcotest.int "64 local increments" 64 (read 0)

let test_cas () =
  let _, read =
    run_kernel ~n:64 ~wg:64 ~words:2 (fun b out ->
        (* every lane tries to CAS slot 0 from 0 to its gid+1; exactly one
           wins because execution is sequential within the wave *)
        let gid = Builder.global_id b 0 in
        let old =
          Builder.cas b Types.Global out (Builder.imm 0)
            (Builder.add b gid (Builder.imm 1))
        in
        Builder.when_ b (Builder.eq b old (Builder.imm 0)) (fun () ->
            Builder.gstore_elem b out (Builder.imm 1) gid))
  in
  check Alcotest.int "lane 0 won" 1 (read 0);
  check Alcotest.int "winner recorded" 0 (read 1)

let test_swizzle_kinds () =
  let _, read =
    run_kernel (fun b out ->
        let lid = Builder.local_id b 0 in
        let x = Builder.swizzle b (Types.Xor_mask 1) lid in
        Builder.gstore_elem b out lid x)
  in
  for i = 0 to 63 do
    check Alcotest.int "xor-swizzled" (i lxor 1) (read i)
  done

let test_partial_wavefront () =
  (* 40 items in a 40-item group: a single partial wave *)
  let r, read =
    run_kernel ~n:40 ~wg:40 ~words:64 (fun b out ->
        let gid = Builder.global_id b 0 in
        Builder.gstore_elem b out gid (Builder.add b gid (Builder.imm 1)))
  in
  check Alcotest.bool "finished" true (r.Sim.Device.outcome = Sim.Device.Finished);
  check Alcotest.int "lane 39 ran" 40 (read 39);
  check Alcotest.int "lane 40 did not" 0 (read 40)

let test_2d_ids () =
  let b = Builder.create "t2d" in
  let out = Builder.buffer_param b "out" in
  let gx = Builder.global_id b 0 in
  let gy = Builder.global_id b 1 in
  let w = Builder.global_size b 0 in
  Builder.gstore_elem b out (Builder.mad b gy w gx)
    (Builder.mad b gy (Builder.imm 1000) gx);
  let k = Builder.finish b in
  let dev = Sim.Device.create Sim.Config.small in
  let buf = Sim.Device.alloc dev (16 * 16 * 4) in
  ignore
    (Sim.Device.launch dev k
       ~nd:(Sim.Geom.make_ndrange 16 8 ~gy:16 ~ly:4)
       ~args:[ Sim.Device.A_buf buf ]);
  for y = 0 to 15 do
    for x = 0 to 15 do
      check Alcotest.int "2d id" ((y * 1000) + x)
        (Sim.Device.read_i32 dev buf ((y * 16) + x))
    done
  done

let test_scalar_arg_kinds () =
  let b = Builder.create "args" in
  let out = Builder.buffer_param b "out" in
  let i = Builder.scalar_param b "i" in
  let f = Builder.scalar_param b "f" in
  Builder.gstore_elem b out (Builder.imm 0) i;
  Builder.gstore_elem b out (Builder.imm 1)
    (Builder.f32_to_s32 b (Builder.cvt b Types.Bitcast f));
  let k = Builder.finish b in
  let dev = Sim.Device.create Sim.Config.small in
  let buf = Sim.Device.alloc dev 16 in
  ignore
    (Sim.Device.launch dev k ~nd:(Sim.Geom.make_ndrange 1 1)
       ~args:[ Sim.Device.A_buf buf; Sim.Device.A_i32 42; Sim.Device.A_f32 7.9 ]);
  check Alcotest.int "int arg" 42 (Sim.Device.read_i32 dev buf 0);
  check Alcotest.int "float arg truncated" 7 (Sim.Device.read_i32 dev buf 1)

(* ------------------------------------------------------------------ *)
(* Failure modes                                                       *)
(* ------------------------------------------------------------------ *)

let test_oob_crashes () =
  let r, _ =
    run_kernel ~n:1 ~wg:1 (fun b out ->
        ignore out;
        Builder.gstore b (Builder.imm 0x7FFFFFF0) (Builder.imm 1))
  in
  check Alcotest.bool "wild store crashes" true
    (match r.Sim.Device.outcome with Sim.Device.Crashed _ -> true | _ -> false)

let test_watchdog_hang () =
  let b = Builder.create "spin" in
  let out = Builder.buffer_param b "out" in
  ignore out;
  let one = Builder.mov b (Builder.imm 1) in
  Builder.while_ b (fun () -> one) (fun () -> ());
  let k = Builder.finish b in
  let dev = Sim.Device.create Sim.Config.small in
  let buf = Sim.Device.alloc dev 16 in
  let opts = { Sim.Device.default_opts with Sim.Device.max_cycles = Some 5000 } in
  let r =
    Sim.Device.launch ~opts dev k ~nd:(Sim.Geom.make_ndrange 1 1)
      ~args:[ Sim.Device.A_buf buf ]
  in
  check Alcotest.bool "infinite loop hits watchdog" true
    (r.Sim.Device.outcome = Sim.Device.Hung)

let test_trap_detection () =
  let r, _ =
    run_kernel ~n:64 ~wg:64 (fun b out ->
        ignore out;
        let gid = Builder.global_id b 0 in
        Builder.trap b (Builder.eq b gid (Builder.imm 13)))
  in
  check Alcotest.bool "trap detected" true (r.Sim.Device.outcome = Sim.Device.Detected)

let test_trap_zero_is_noop () =
  let r, _ =
    run_kernel ~n:64 ~wg:64 (fun b out ->
        ignore out;
        Builder.trap b (Builder.imm 0))
  in
  check Alcotest.bool "trap 0 is a no-op" true
    (r.Sim.Device.outcome = Sim.Device.Finished)

(* ------------------------------------------------------------------ *)
(* Counters and timing                                                 *)
(* ------------------------------------------------------------------ *)

let test_counters_sanity () =
  let r, _ =
    run_kernel ~n:256 ~wg:64 ~words:256 (fun b out ->
        let gid = Builder.global_id b 0 in
        let v = Builder.gload_elem b out gid in
        Builder.gstore_elem b out gid (Builder.add b v (Builder.imm 1)))
  in
  let c = r.Sim.Device.counters in
  check Alcotest.int "4 groups" 4 c.Sim.Counters.groups_launched;
  check Alcotest.int "4 waves" 4 c.Sim.Counters.waves_launched;
  check Alcotest.int "4 loads" 4 c.Sim.Counters.global_load_insts;
  check Alcotest.int "4 stores" 4 c.Sim.Counters.global_store_insts;
  check Alcotest.bool "cycles positive" true (r.Sim.Device.cycles > 0);
  check Alcotest.bool "valu activity" true (c.Sim.Counters.valu_insts > 0)

let test_memory_bound_counter_shape () =
  (* a pure-load kernel must report higher memory-unit than VALU busy *)
  let r, _ =
    run_kernel ~n:2048 ~wg:64 ~words:2048 (fun b out ->
        let gid = Builder.global_id b 0 in
        let v = Builder.gload_elem b out gid in
        Builder.gstore_elem b out gid v)
  in
  let cfg = Sim.Config.small in
  let c = r.Sim.Device.counters in
  let valu =
    Sim.Counters.valu_busy_pct ~n_cus:cfg.n_cus ~simds_per_cu:cfg.simds_per_cu c
  in
  let mem = Sim.Counters.mem_unit_busy_pct ~n_cus:cfg.n_cus c in
  check Alcotest.bool
    (Printf.sprintf "mem-bound: mem %.1f%% > valu %.1f%%" mem valu)
    true (mem > valu)

let test_windows_emitted () =
  let b = Builder.create "w" in
  let out = Builder.buffer_param b "out" in
  let gid = Builder.global_id b 0 in
  let acc = Builder.cell b (Builder.immf 0.0) in
  Builder.for_ b ~lo:(Builder.imm 0) ~hi:(Builder.imm 2000)
    ~step:(Builder.imm 1) (fun _ ->
      Builder.set b acc (Builder.fadd b (Builder.get acc) (Builder.immf 1.0)));
  Builder.gstore_elem b out gid (Builder.f32_to_s32 b (Builder.get acc));
  let k = Builder.finish b in
  let dev = Sim.Device.create { Sim.Config.small with window_cycles = 1000 } in
  let buf = Sim.Device.alloc dev (64 * 4) in
  let r =
    Sim.Device.launch dev k ~nd:(Sim.Geom.make_ndrange 64 64)
      ~args:[ Sim.Device.A_buf buf ]
  in
  check Alcotest.bool "several power windows" true
    (Array.length r.Sim.Device.windows >= 2);
  check Alcotest.int "loop result" 2000 (Sim.Device.read_i32 dev buf 0)

(* A negative size would move the bump pointer backwards, so the next
   buffer would overlap this one. *)
let test_alloc_rejects_negative_size () =
  let dev = Sim.Device.create Sim.Config.small in
  let a = Sim.Device.alloc dev 16 in
  Alcotest.check_raises "negative size"
    (Invalid_argument "Device.alloc: negative size -4") (fun () ->
      ignore (Sim.Device.alloc dev (-4)));
  let b = Sim.Device.alloc dev 16 in
  check Alcotest.bool "next buffer past the first" true
    (b.Sim.Device.addr >= a.Sim.Device.addr + a.Sim.Device.size)

let suite =
  [
    tc "cache: hit/miss" `Quick test_cache_hit_miss;
    tc "cache: LRU eviction" `Quick test_cache_lru_eviction;
    tc "cache: invalidate" `Quick test_cache_invalidate;
    tc "cache: resident pick" `Quick test_cache_random_resident;
    tc "geom: decomposition" `Quick test_geom_decomposition;
    tc "geom: validation" `Quick test_geom_validation;
    tc "occupancy: limits" `Quick test_occupancy_limits;
    tc "exec: integer arith" `Quick test_integer_arith;
    tc "exec: unsigned ops" `Quick test_unsigned_ops;
    tc "exec: float arith" `Quick test_float_arith;
    tc "exec: select/cmp" `Quick test_select_and_cmp;
    tc "exec: divergent if" `Quick test_divergent_if;
    tc "exec: divergent loop" `Quick test_divergent_loop_trip_counts;
    tc "exec: nested control" `Quick test_nested_control;
    tc "exec: barrier" `Quick test_barrier_communication;
    tc "exec: global atomics" `Quick test_global_atomics;
    tc "exec: local atomics" `Quick test_local_atomics;
    tc "exec: cas" `Quick test_cas;
    tc "exec: swizzle" `Quick test_swizzle_kinds;
    tc "exec: partial wave" `Quick test_partial_wavefront;
    tc "exec: 2d ids" `Quick test_2d_ids;
    tc "exec: scalar args" `Quick test_scalar_arg_kinds;
    tc "fail: out-of-bounds" `Quick test_oob_crashes;
    tc "fail: watchdog" `Quick test_watchdog_hang;
    tc "fail: trap fires" `Quick test_trap_detection;
    tc "fail: trap zero" `Quick test_trap_zero_is_noop;
    tc "counters: sanity" `Quick test_counters_sanity;
    tc "counters: memory-bound shape" `Quick test_memory_bound_counter_shape;
    tc "counters: power windows" `Quick test_windows_emitted;
    tc "alloc: negative size rejected" `Quick test_alloc_rejects_negative_size;
  ]

(* ------------------------------------------------------------------ *)
(* Memory-system timing                                                 *)
(* ------------------------------------------------------------------ *)

let mk_memsys ?(cfg = Sim.Config.small) () =
  let counters = Sim.Counters.create () in
  (Sim.Memsys.create cfg counters ~data:(Sim.Gmem.create (1 lsl 20)), counters, cfg)

let test_memsys_functional () =
  let ms, _, _ = mk_memsys () in
  Sim.Memsys.write32 ms 128 (-5);
  check Alcotest.int "read back" (-5) (Sim.Memsys.read32 ms 128);
  Alcotest.check_raises "unaligned store rejected"
    (Sim.Memsys.Fault "unaligned store at address 5") (fun () ->
      Sim.Memsys.write32 ms 5 1);
  check Alcotest.bool "oob load rejected" true
    (match Sim.Memsys.read32 ms (1 lsl 21) with
    | exception Sim.Memsys.Fault _ -> true
    | _ -> false)

let test_memsys_latency_ladder () =
  let ms, c, cfg = mk_memsys () in
  (* cold: DRAM; second access: L1 hit *)
  let t1 = Sim.Memsys.load_timed ms ~cu:0 ~now:0 [| 0 |] ~n:1 in
  let t2 = Sim.Memsys.load_timed ms ~cu:0 ~now:0 [| 0 |] ~n:1 in
  check Alcotest.bool "cold access slower than DRAM latency" true
    (t1 >= cfg.dram_latency);
  check Alcotest.int "warm access at L1 latency" cfg.l1_latency t2;
  check Alcotest.int "one miss one hit" 1 c.Sim.Counters.l1_hits;
  (* a different CU misses its own L1 but hits the shared L2 *)
  let t3 = Sim.Memsys.load_timed ms ~cu:1 ~now:0 [| 0 |] ~n:1 in
  check Alcotest.int "other CU hits L2" cfg.l2_latency t3

let test_memsys_dram_bandwidth_serializes () =
  let ms, _, cfg = mk_memsys () in
  (* many distinct lines at once: completion must exceed latency by the
     serialized transfer time *)
  let lines = Array.init 64 (fun i -> i * cfg.line_bytes) in
  let t = Sim.Memsys.load_timed ms ~cu:0 ~now:0 lines ~n:64 in
  let transfer =
    int_of_float (float_of_int (64 * cfg.line_bytes) /. cfg.dram_bytes_per_cycle)
  in
  check Alcotest.bool
    (Printf.sprintf "bandwidth-bound completion (%d >= %d)" t transfer)
    true
    (t >= transfer)

let test_memsys_write_backlog () =
  let ms, _, _ = mk_memsys () in
  check Alcotest.bool "no stall when idle" false
    (Sim.Memsys.store_would_stall ms ~cu:0 ~now:0);
  (* flood the write port *)
  for _ = 0 to 63 do
    Sim.Memsys.store_timed ms ~cu:0 ~now:0 ~n:16
  done;
  check Alcotest.bool "backlog forces stall" true
    (Sim.Memsys.store_would_stall ms ~cu:0 ~now:0)

let test_memsys_atomic_invalidates_l1 () =
  let ms, _, cfg = mk_memsys () in
  ignore (Sim.Memsys.load_timed ms ~cu:0 ~now:0 [| 0 |] ~n:1);
  ignore (Sim.Memsys.atomic_timed ms ~cu:0 ~now:0 [| 0 |] ~n:1);
  (* after the atomic, the next load must miss the L1 again *)
  let t = Sim.Memsys.load_timed ms ~cu:0 ~now:1000 [| 0 |] ~n:1 in
  check Alcotest.bool "L1 copy invalidated" true (t > 1000 + cfg.l1_latency)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_geom_flat_roundtrip =
  QCheck.Test.make ~name:"flat local id decomposition is a bijection"
    ~count:200
    QCheck.(triple (int_range 1 32) (int_range 1 8) (int_range 1 4))
    (fun (lx, ly, lz) ->
      let nd = Sim.Geom.make_ndrange lx lx ~gy:ly ~ly ~gz:lz ~lz in
      let view = { Sim.Geom.nd; gcoord = [| 0; 0; 0 |] } in
      let items = lx * ly * lz in
      List.for_all
        (fun flat ->
          let l0 = Sim.Geom.local_id_of_flat view ~flat 0 in
          let l1 = Sim.Geom.local_id_of_flat view ~flat 1 in
          let l2 = Sim.Geom.local_id_of_flat view ~flat 2 in
          (l2 * ly * lx) + (l1 * lx) + l0 = flat)
        (List.init items Fun.id))

let prop_counters_delta_accumulate =
  QCheck.Test.make ~name:"counters: accumulate (delta a b) b = a" ~count:100
    QCheck.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (x, y) ->
      let a = Sim.Counters.create () and b = Sim.Counters.create () in
      a.Sim.Counters.cycles <- x + y;
      a.Sim.Counters.valu_insts <- 2 * (x + 1);
      a.Sim.Counters.dram_read_bytes <- 64 * x;
      b.Sim.Counters.cycles <- y;
      b.Sim.Counters.valu_insts <- x + 1;
      let d = Sim.Counters.delta a b in
      let r = Sim.Counters.copy b in
      Sim.Counters.accumulate ~into:r d;
      r.Sim.Counters.cycles = a.Sim.Counters.cycles
      && r.Sim.Counters.valu_insts = a.Sim.Counters.valu_insts
      && r.Sim.Counters.dram_read_bytes = a.Sim.Counters.dram_read_bytes)

let prop_occupancy_monotone_vgpr =
  QCheck.Test.make ~name:"occupancy never rises with more VGPRs" ~count:200
    QCheck.(pair (int_range 1 128) (int_range 1 128))
    (fun (v1, v2) ->
      let lo = min v1 v2 and hi = max v1 v2 in
      let occ v =
        (Sim.Occupancy.compute Sim.Config.default
           ~usage:{ vgprs = v; sgprs = 20; lds = 0 }
           ~group_items:128)
          .Sim.Occupancy.groups_per_cu
      in
      occ hi <= occ lo)

(* ------------------------------------------------------------------ *)
(* Allocation cost of the issue loop                                    *)
(* ------------------------------------------------------------------ *)

(* A deterministic cost gate: one fixed single-domain launch (SF under
   Intra-Group+LDS, default device) allocates the same minor-heap words
   on every run, so the bound can be tight where a wall-clock bound
   cannot. The issue loop must stay free of per-instruction allocation;
   this launch measures ~18 words per issue, decoding and dispatch
   included. *)
let test_launch_minor_words_per_issue () =
  let module T = Rmt_core.Transform in
  let bench = Kernels.Registry.find "SF" in
  let dev = Sim.Device.create Sim.Config.default in
  let prep = bench.prepare dev ~scale:1 in
  let step = List.hd prep.steps in
  let v = T.intra_plus_lds in
  let kernel = Harness.Run.transformed_kernel bench v ~nd:step.nd in
  let extras = T.make_extras v dev ~nd:step.nd in
  let nd = T.map_ndrange v step.nd in
  let args = step.args @ extras.ex_args in
  let w0 = Gc.minor_words () in
  let r = Sim.Device.launch dev kernel ~nd ~args in
  let words = Gc.minor_words () -. w0 in
  let c = r.Sim.Device.counters in
  let issues =
    c.Sim.Counters.valu_insts + c.salu_insts + c.vmem_insts + c.lds_insts
  in
  check Alcotest.bool "launch finished" true
    (r.Sim.Device.outcome = Sim.Device.Finished);
  check Alcotest.int "issued wave instructions" 53208 issues;
  let per_issue = words /. float_of_int issues in
  check Alcotest.bool
    (Printf.sprintf "%.1f minor words per issue <= 40" per_issue)
    true (per_issue <= 40.0)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_geom_flat_roundtrip;
      prop_counters_delta_accumulate;
      prop_occupancy_monotone_vgpr;
    ]

let suite =
  suite
  @ [
      tc "memsys: functional" `Quick test_memsys_functional;
      tc "memsys: latency ladder" `Quick test_memsys_latency_ladder;
      tc "memsys: dram bandwidth" `Quick test_memsys_dram_bandwidth_serializes;
      tc "memsys: write backlog" `Quick test_memsys_write_backlog;
      tc "memsys: atomics invalidate L1" `Quick test_memsys_atomic_invalidates_l1;
      tc "alloc: minor words per issue" `Quick test_launch_minor_words_per_issue;
    ]
  @ qsuite
