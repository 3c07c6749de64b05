(* Tests for the launch observers — trace sink, profile collector,
   provenance record and sanitizer shadow:

   - pins: each observer's output on fixed runs, as digests recorded
     from an earlier build, so a change to how the device reports to
     its observers fails loudly;
   - composition: all four observers attached to one injected run
     record exactly what each records alone, and leave the run's
     counters untouched;
   - provenance: a flipped register consumed by an instruction that
     then faults is still recorded as consumed. *)

module Sim = Gpu_sim
module Shadow = Gpu_san.Shadow
module T = Rmt_core.Transform

let check = Alcotest.check
let tc = Alcotest.test_case

let flavors =
  [ T.Original; T.intra_plus_lds; T.intra_minus_lds; T.inter_group ]

(* ------------------------------------------------------------------ *)
(* Observer pins                                                       *)
(* ------------------------------------------------------------------ *)

let test_trace_streams_pinned () =
  List.iter
    (fun (id, variant, digest) ->
      let b = Buffer.create (1 lsl 20) in
      let s =
        Harness.Run.run ~trace:(Pin.buffer_sink b) (Kernels.Registry.find id)
          variant
      in
      check Alcotest.bool (id ^ " verified") true s.Harness.Run.verified;
      check Alcotest.string (id ^ " trace digest") digest (Pin.hex b))
    [
      ("PS", T.intra_plus_lds, "57ff9aae7880b8b7c3de02f85e397824");
      ("BinS", T.inter_group, "9e73e41d5a97cfa6c2cadeaa7bd40d86");
    ]

let test_collectors_pinned () =
  List.iter
    (fun (id, digests) ->
      List.iter2
        (fun variant digest ->
          let _s, _k, c =
            Harness.Run.observe ~profile:true (Kernels.Registry.find id) variant
          in
          let c = Option.get c in
          let b = Buffer.create 4096 in
          Pin.add_collector b c;
          check Alcotest.string
            (Printf.sprintf "%s/%s collector digest" id (T.name variant))
            digest (Pin.hex b))
        flavors digests)
    [
      ( "PS",
        [
          "84810403836046745628e411d464f76e";
          "9763c2c826e476a25ed0d8f89ddd70d0";
          "e4cbca7d83533063ac4bb0adc10e11ae";
          "c8628d61607c048ac77b7aa6abbf0a27";
        ] );
      ( "BitS",
        [
          "55a61c5fa489360d30beb80fb07c3b9a";
          "0d354dd081fd7c27c656941819b5e57e";
          "0d354dd081fd7c27c656941819b5e57e";
          "62441c0f2c0fabbdff8873c73559007a";
        ] );
    ]

let test_sanitizer_reports_pinned () =
  List.iter2
    (fun defect digest ->
      let san = Shadow.create () in
      let (_ : int array) = Gen_kernel.run ~defect ~san 1 in
      let kernel = Gen_kernel.generate ~defect 1 in
      check Alcotest.string
        (Gen_kernel.defect_name defect ^ " report digest")
        digest
        (Digest.to_hex
           (Digest.string (Gpu_san.Report.to_string ~kernel san))))
    Gen_kernel.all_defects
    [
      "6f51ce38397795e37e4e678474091139";
      "1b594e6d78be28eb2ece66e7cced5295";
      "c713e750548f355ed8abc6d194fdf2aa";
      "4bfeccb8b9487e47f40f97df0259e41b";
    ];
  let _s, kernel, san =
    Harness.Run.run_sanitized (Kernels.Registry.find "BinS") T.intra_plus_lds
  in
  let report = Gpu_san.Report.to_string ~kernel san in
  check Alcotest.bool "clean registry run" true (Shadow.clean san);
  check Alcotest.string "clean report" "sanitizer: clean (0 findings)\n" report

(* ------------------------------------------------------------------ *)
(* Composition                                                         *)
(* ------------------------------------------------------------------ *)

let test_observers_compose () =
  let bench = Kernels.Registry.find "BlkSch" and variant = T.intra_plus_lds in
  let inject = { Sim.Device.at_cycle = 1800; target = Sim.Device.T_vgpr; iseed = 11 } in
  let summary s =
    let b = Buffer.create 4096 in
    Pin.add_summary b s;
    Buffer.contents b
  in
  let observe ~trace ~profile ~provenance ~san =
    let tb = Buffer.create (1 lsl 20) in
    let p = Gpu_prof.Provenance.create () in
    let sh = Shadow.create () in
    let s, _, c =
      Harness.Run.observe ~inject
        ?trace:(if trace then Some (Pin.buffer_sink tb) else None)
        ~profile
        ?provenance:(if provenance then Some p else None)
        ?san:(if san then Some sh else None)
        bench variant
    in
    check Alcotest.string "detected" "detected"
      (Harness.Run.outcome_name s.Harness.Run.outcome);
    let cb = Buffer.create 4096 and pb = Buffer.create 256 in
    Option.iter (Pin.add_collector cb) c;
    Pin.add_provenance pb p;
    ( summary s,
      Buffer.contents tb,
      Buffer.contents cb,
      Buffer.contents pb,
      Gpu_san.Report.to_string sh )
  in
  let plain, _, _, _, _ =
    observe ~trace:false ~profile:false ~provenance:false ~san:false
  in
  let all_s, all_t, all_c, all_p, all_san =
    observe ~trace:true ~profile:true ~provenance:true ~san:true
  in
  let s1, t, _, _, _ = observe ~trace:true ~profile:false ~provenance:false ~san:false in
  let s2, _, c, _, _ = observe ~trace:false ~profile:true ~provenance:false ~san:false in
  let s3, _, _, p, _ = observe ~trace:false ~profile:false ~provenance:true ~san:false in
  let s4, _, _, _, san = observe ~trace:false ~profile:false ~provenance:false ~san:true in
  List.iter
    (fun s -> check Alcotest.string "counters as unobserved" plain s)
    [ all_s; s1; s2; s3; s4 ];
  check Alcotest.bool "trace nonempty" true (String.length t > 0);
  check Alcotest.string "trace as alone" t all_t;
  check Alcotest.string "collector as alone" c all_c;
  check Alcotest.string "provenance as alone" p all_p;
  check Alcotest.string "sanitizer as alone" san all_san

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

(* The flip lands in v72, an LDS address of BlkSch under Intra+LDS: bit
   22 sends the next load far out of bounds. The load reads the flipped
   register before it faults, so the flip was consumed there. *)
let test_faulting_consumer_recorded () =
  let bench = Kernels.Registry.find "BlkSch" and variant = T.intra_plus_lds in
  let p = Gpu_prof.Provenance.create () in
  let s =
    Harness.Run.run
      ~inject:{ Sim.Device.at_cycle = 984; target = Sim.Device.T_vgpr; iseed = 55530 }
      ~provenance:p bench variant
  in
  check Alcotest.string "outcome" "crashed: LDS load out of bounds at 4194720"
    (Harness.Run.outcome_name s.Harness.Run.outcome);
  check Alcotest.int "flipped bit" 22 p.bit;
  match p.first_use with
  | None -> Alcotest.fail ("flip reported unconsumed: " ^ Gpu_prof.Provenance.to_string p)
  | Some u -> (
      let _, kernel, _ = Harness.Run.observe bench variant in
      match (Gpu_ir.Site.insts kernel).(u.u_site) with
      | Gpu_ir.Types.Load (Gpu_ir.Types.Local, _, _) -> ()
      | i ->
          Alcotest.failf "consumed at site %d (%s), not an LDS load" u.u_site
            (Gpu_ir.Pp.string_of_inst i))

let suite =
  [
    tc "pin: trace streams" `Quick test_trace_streams_pinned;
    tc "pin: collector arrays" `Quick test_collectors_pinned;
    tc "pin: sanitizer reports" `Quick test_sanitizer_reports_pinned;
    tc "observers compose" `Quick test_observers_compose;
    tc "provenance: faulting consumer recorded" `Quick
      test_faulting_consumer_recorded;
  ]
