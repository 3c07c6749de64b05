(* Digests of simulated behaviour. Tests compare them against constants
   recorded from an earlier build of the simulator, so any drift in
   cycles, counters, power windows, outcomes, fault provenance or
   translation-validation store streams fails loudly. *)

module Counters = Gpu_sim.Counters
module Machine = Gpu_tv.Machine

let add_counters b (c : Counters.t) =
  List.iter (fun (n, v) -> Printf.bprintf b " %s=%d" n v) (Counters.to_fields c);
  Buffer.add_char b '\n'

let add_summary b (s : Harness.Run.summary) =
  Printf.bprintf b "%s/%s cycles=%d outcome=%s verified=%b steps=%d inj=%b lat=%s\n"
    s.bench_id
    (Rmt_core.Transform.name s.variant)
    s.cycles
    (Harness.Run.outcome_name s.outcome)
    s.verified s.steps s.inject_applied
    (match s.detection_latency with Some l -> string_of_int l | None -> "-");
  add_counters b s.counters;
  Array.iter (add_counters b) s.windows

let add_provenance b (p : Gpu_prof.Provenance.t) =
  Printf.bprintf b "prov %s | det=%d@%d #%d inj=%d #%d ow=%b\n"
    (Gpu_prof.Provenance.to_string p)
    p.detect_site p.detect_cycle p.detect_inst_index p.inject_cycle
    p.inject_inst_index p.overwritten

let add_machine b (r : Machine.result) =
  Printf.bprintf b "outcome=%s injected=%b steps=%d\n"
    (match r.r_outcome with
    | Machine.Finished -> "finished"
    | Machine.Trapped s -> Printf.sprintf "trapped@%d" s
    | Machine.Hung -> "hung")
    r.r_injected r.r_steps;
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) r.r_stores []
    |> List.sort compare
  in
  List.iter
    (fun (k : Machine.stream_key) ->
      Printf.bprintf b "%s g%d @%d:"
        (match k.sk_space with Gpu_ir.Types.Global -> "G" | Local -> "L")
        k.sk_group k.sk_addr;
      List.iter
        (fun (e : Machine.event) ->
          Printf.bprintf b " %d:%d:%d" e.ev_site e.ev_value e.ev_group)
        (Machine.events r k);
      Buffer.add_char b '\n')
    keys

let hex b = Digest.to_hex (Digest.string (Buffer.contents b))
