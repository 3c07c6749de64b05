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

let add_record b (r : Gpu_trace.Sink.record) =
  Buffer.add_string b (Gpu_trace.Sink.record_to_string r);
  Buffer.add_char b '\n'

(* A trace sink that renders every record into [b]. *)
let buffer_sink b =
  { Gpu_trace.Sink.emit = (fun ~at ev -> add_record b { Gpu_trace.Sink.at; ev }) }

let add_collector b (c : Gpu_prof.Collector.t) =
  let arr name a =
    Printf.bprintf b "%s:" name;
    Array.iter (Printf.bprintf b " %d") a;
    Buffer.add_char b '\n'
  in
  Printf.bprintf b "nsites=%d\n" c.nsites;
  arr "issues" c.issues;
  arr "valu_busy" c.valu_busy;
  arr "salu_busy" c.salu_busy;
  arr "mem_unit_busy" c.mem_unit_busy;
  arr "lds_busy" c.lds_busy;
  arr "write_stalled" c.write_stalled;
  arr "spin_iterations" c.spin_iterations;
  arr "stall_scoreboard" c.stall_scoreboard;
  arr "stall_unit_busy" c.stall_unit_busy;
  arr "stall_write_backlog" c.stall_write_backlog;
  arr "stall_barrier" c.stall_barrier;
  arr "l1_hits" c.l1_hits;
  arr "l1_misses" c.l1_misses;
  arr "l2_hits" c.l2_hits;
  arr "l2_misses" c.l2_misses
