(** The device: buffer management, work-group dispatch, the per-cycle
    issue loop, performance counters, power-window sampling and fault
    injection.

    The scheduling model follows GCN: each compute unit owns four SIMD
    units; on cycle [c] the SIMD [c mod 4] gets an issue turn, during
    which its resident wavefronts (up to 10) may each issue at most one
    instruction — one vector ALU op (occupying the SIMD for 4 cycles, 16
    for transcendentals), plus at most one vector-memory, one LDS and one
    scalar op to the CU-shared units. Wavefronts are scoreboarded:
    an instruction issues only when its operands' producing loads have
    completed, which is what lets waves hide each other's memory latency —
    the effect the paper's memory-bound kernels exploit to get cheap RMT.

    Each launch lowers its kernel once ({!Wave.decode}); the waves of the
    launch share that program. On its turn a SIMD's scan visits only its
    own waves, reading readiness, unit and destination from the decoded
    instruction; the other SIMDs' waves matter only through a count of
    running waves. The issue loop allocates nothing per scan or per
    instruction beyond what observers ask for. Probes: a launch folds its
    observers (trace sink, profile collector, provenance record,
    sanitizer shadow) into one {!Probe.t} option at its start, and each
    observable program point tests it once.

    The simulator is cycle-stepped but skips ahead over provably idle
    periods, so spin-heavy Inter-Group RMT kernels remain tractable. *)

open Gpu_ir.Types
module Regpressure = Gpu_ir.Regpressure
module Uniformity = Gpu_ir.Uniformity
module F32 = Gpu_ir.F32

type buffer = { addr : int; size : int }
type arg = A_buf of buffer | A_i32 of int | A_f32 of float

type outcome =
  | Finished
  | Detected  (** an RMT output comparison fired a trap *)
  | Crashed of string
  | Hung

type inject_target = T_vgpr | T_sgpr | T_lds | T_l1
type inject_plan = { at_cycle : int; target : inject_target; iseed : int }

type result = {
  cycles : int;
  outcome : outcome;
  counters : Counters.t;
  windows : Counters.t array;  (** per-power-window event deltas *)
  occupancy : Occupancy.t;
  usage : Regpressure.usage;
  groups_completed : int;
  inject_applied : bool;
  injected_at : int option;  (** cycle the fault actually landed *)
  detected_at : int option;  (** cycle an output comparison trapped *)
}

type t = {
  cfg : Config.t;
  data : Gmem.t;  (** global memory, paged: creation costs no zero-fill *)
  mutable alloc_ptr : int;
  mutable san : Gpu_san.Shadow.t option;  (** see {!set_san} *)
}

let create (cfg : Config.t) =
  { cfg; data = Gmem.create cfg.memory_bytes; alloc_ptr = 256; san = None }

(** Attach (or detach) the sanitizer shadow. *)
let set_san dev s = dev.san <- s

(* ------------------------------------------------------------------ *)
(* Buffers                                                             *)
(* ------------------------------------------------------------------ *)

let align_up v a = (v + a - 1) / a * a

let alloc dev bytes =
  if bytes < 0 then
    invalid_arg (Printf.sprintf "Device.alloc: negative size %d" bytes);
  let addr = align_up dev.alloc_ptr 256 in
  if addr + bytes > Gmem.size dev.data then
    failwith "Device.alloc: out of device memory";
  dev.alloc_ptr <- addr + bytes;
  Probe.host_alloc dev.san ~addr ~size:bytes;
  { addr; size = bytes }

(** Release all buffers (bump-allocator reset). *)
let free_all dev =
  dev.alloc_ptr <- 256;
  Probe.host_free_all dev.san

let check_idx buf i =
  if i < 0 || (i * 4) + 4 > buf.size then
    invalid_arg (Printf.sprintf "buffer index %d out of range" i)

let write_i32 dev buf i v =
  check_idx buf i;
  Probe.host_write dev.san (buf.addr + (i * 4));
  Gmem.set32 dev.data (buf.addr + (i * 4)) v

let read_i32 dev buf i =
  check_idx buf i;
  Gmem.get32 dev.data (buf.addr + (i * 4))

let write_f32 dev buf i x = write_i32 dev buf i (F32.of_float x)
let read_f32 dev buf i = F32.to_float (read_i32 dev buf i)

let write_i32_array dev buf arr = Array.iteri (fun i v -> write_i32 dev buf i v) arr
let write_f32_array dev buf arr = Array.iteri (fun i x -> write_f32 dev buf i x) arr
let read_i32_array dev buf n = Array.init n (fun i -> read_i32 dev buf i)
let fill_i32 dev buf n v = for i = 0 to n - 1 do write_i32 dev buf i v done

(* ------------------------------------------------------------------ *)
(* Run-time structures                                                 *)
(* ------------------------------------------------------------------ *)

type grp = {
  g_index : int;
  lds_mem : Bytes.t;
  g_waves : Wave.t array;
  g_mem : Wave.mem_ops;
  mutable barrier_arrived : int;
  mutable retired_waves : int;
  g_lds_account : int;  (** LDS bytes charged to the CU (incl. inflation) *)
}

type slot = {
  w : Wave.t;
  g : grp;
  pos : int;  (** index in the CU's schedule snapshot *)
  mutable live : bool;
}

type cu_state = {
  cu_id : int;
  mutable groups : grp list;
  mutable lds_used : int;
  simd_waves : int array;
  simd_vgprs : int array;
  simd_sgprs : int array;
  simd_busy_until : int array;
  running : int array;  (** per SIMD: resident waves in [Running] state *)
  mutable n_running : int;
  mutable salu_busy_until : int;
  mutable lds_busy_until : int;
  mutable sched : slot array;
  mutable by_simd : slot array array;
      (** [sched] split per SIMD, each in schedule order *)
  mutable rr : int;  (** rotating scan start for [Round_robin] *)
  mutable wake : int;
  mutable wstall_counted_until : int;
      (** write-stall cycles are charged as blocked spans; this marks the
          end of the last span already credited, so overlapping scans of
          one episode never double-count *)
}

(* Per-scan state, reused by every scan of a launch. *)
type scan = {
  mutable next_wake : int;
  mutable valu_used : bool;
  mutable vmem_used : bool;
  mutable lds_issued : bool;
  mutable salu_used : bool;
  mutable events : bool;
}

exception Trap_detected

(* ------------------------------------------------------------------ *)
(* Launch                                                              *)
(* ------------------------------------------------------------------ *)

type launch_opts = {
  usage_override : Regpressure.usage option;
      (** replace the estimated resource usage (the paper's "artificially
          inflate the resource usage" component-analysis experiment) *)
  max_cycles : int option;
  inject : inject_plan option;
  verify_kernel : bool;
  trace : Gpu_trace.Sink.t option;  (** observers, see {!Probe} *)
  profile : Gpu_prof.Collector.t option;
  provenance : Gpu_prof.Provenance.t option;
  scan_every_cycle : bool;
      (** debug: disable idle skip-ahead and scan every CU every cycle.
          Slower but timing-equivalent; used to cross-check the stall
          accounting the skip-ahead path must reproduce. *)
}

let default_opts =
  {
    usage_override = None;
    max_cycles = None;
    inject = None;
    verify_kernel = true;
    trace = None;
    profile = None;
    provenance = None;
    scan_every_cycle = false;
  }

let atomic_eval op old v =
  let uo = F32.to_u old and uv = F32.to_u v in
  match op with
  | A_add -> F32.norm (old + v)
  | A_sub -> F32.norm (old - v)
  | A_xchg -> v
  | A_max_u -> if uo >= uv then old else v
  | A_min_u -> if uo <= uv then old else v
  | A_poll -> old  (* tagged spin-poll: an L2-visible read, no write *)

(** Run [kernel] over [nd] with [args]. *)
let launch ?(opts = default_opts) dev (kernel : kernel) ~(nd : Geom.ndrange)
    ~(args : arg list) : result =
  let cfg = dev.cfg in
  Geom.validate nd;
  if opts.verify_kernel then Gpu_ir.Verify.check kernel;
  let group_items = Geom.group_items nd in
  if group_items > cfg.max_workgroup_size then
    invalid_arg
      (Printf.sprintf "work-group size %d exceeds device maximum %d"
         group_items cfg.max_workgroup_size);
  if List.length args <> param_count kernel then
    invalid_arg "argument count does not match kernel parameters";
  let usage =
    match opts.usage_override with
    | Some u -> u
    | None -> Regpressure.analyze kernel
  in
  let occupancy = Occupancy.compute cfg ~usage ~group_items in
  if occupancy.groups_per_cu = 0 then
    invalid_arg "kernel does not fit on a compute unit (occupancy 0)";
  let div = Uniformity.analyze kernel in
  let counters = Counters.create () in
  let ms = Memsys.create cfg counters ~data:dev.data in
  let arg_values =
    Array.of_list
      (List.map
         (function
           | A_buf b -> b.addr
           | A_i32 v -> F32.norm v
           | A_f32 x -> F32.of_float x)
         args)
  in
  (* LDS layout: sequential allocation in declaration order. *)
  let lds_layout =
    let off = ref 0 in
    List.map
      (fun (name, sz) ->
        let o = !off in
        off := !off + sz;
        (name, o))
      kernel.lds_allocs
  in
  let lds_total = Gpu_ir.Types.lds_bytes kernel in
  let lds_account = max lds_total usage.lds in
  let waves_per_group = Config.waves_per_group cfg group_items in
  let total_groups = Geom.total_groups nd in
  let max_cycles = Option.value opts.max_cycles ~default:cfg.max_cycles in
  let window_cycles = cfg.window_cycles in
  let cus =
    Array.init cfg.n_cus (fun cu_id ->
        {
          cu_id;
          groups = [];
          lds_used = 0;
          simd_waves = Array.make cfg.simds_per_cu 0;
          simd_vgprs = Array.make cfg.simds_per_cu 0;
          simd_sgprs = Array.make cfg.simds_per_cu 0;
          simd_busy_until = Array.make cfg.simds_per_cu 0;
          running = Array.make cfg.simds_per_cu 0;
          n_running = 0;
          salu_busy_until = 0;
          lds_busy_until = 0;
          sched = [||];
          by_simd = Array.make cfg.simds_per_cu [||];
          rr = 0;
          wake = 0;
          wstall_counted_until = 0;
        })
  in
  let next_group = ref 0 in
  let groups_completed = ref 0 in
  let inject_pending = ref opts.inject in
  let inject_applied = ref false in
  let injected_at = ref None in
  let detected_at = ref None in
  let rng = ref (match opts.inject with Some p -> p.iseed | None -> 1) in
  let rand m =
    rng := (!rng * 1103515245 + 12345) land 0x3FFFFFFF;
    if m <= 0 then 0 else !rng mod m
  in

  (* -------------------- decode -------------------- *)
  (* The kernel is lowered once per launch and the program shared by
     every wave; site ids are dense program-order indices, so the same
     kernel always charges into the same collector slots. *)
  let prog =
    Wave.decode kernel
      ~scalar:(Uniformity.inst_scalarizable div)
      ~lds_base:(fun name ->
        match List.assoc_opt name lds_layout with
        | Some o -> o
        | None -> raise (Memsys.Fault ("unknown LDS allocation " ^ name)))
      ~arg:(fun idx -> arg_values.(idx))
      ~line_bytes:cfg.line_bytes
  in

  (* -------------------- observers -------------------- *)
  (* Every attached observer behind one probe; each program point below
     tests [probe] once. *)
  let probe =
    Probe.compose
      [
        Option.map Probe.of_sink opts.trace;
        Option.map
          (Probe.of_collector ~counters ~kname:kernel.kname
             ~nsites:(Wave.nsites prog))
          opts.profile;
        Option.map (Probe.of_provenance ~counters ~ms) opts.provenance;
        Option.map (Probe.of_shadow ~ms) dev.san;
      ]
  in

  (* -------------------- group dispatch -------------------- *)
  let make_mem_ops ~g_index ~(g_lds : Bytes.t) ~cu_id : Wave.mem_ops =
    let lds_check addr what =
      if addr < 0 || addr + 4 > Bytes.length g_lds then
        raise
          (Memsys.Fault (Printf.sprintf "LDS %s out of bounds at %d" what addr));
      if addr land 3 <> 0 then
        raise (Memsys.Fault (Printf.sprintf "unaligned LDS %s at %d" what addr))
    in
    let lds_read addr =
      lds_check addr "load";
      F32.norm (Int32.to_int (Bytes.get_int32_le g_lds addr))
    in
    (* uncached reads: atomics are processed at the L2 *)
    let read sp a =
      match sp with Global -> Memsys.read32 ms a | Local -> lds_read a
    in
    let store sp a v =
      match sp with
      | Global -> Memsys.store32 ms ~cu:cu_id a v
      | Local ->
          lds_check a "store";
          Bytes.set_int32_le g_lds a (Int32.of_int v)
    in
    {
      mload =
        (fun sp a ->
          match sp with
          | Global -> Memsys.load32 ms ~cu:cu_id a
          | Local -> lds_read a);
      mstore = store;
      matomic =
        (fun op sp a v ->
          let old = read sp a in
          (* a poll reads without writing back (no poison refresh) *)
          if op <> A_poll then store sp a (atomic_eval op old v);
          old);
      mcas =
        (fun sp a e n ->
          let old = read sp a in
          if old = e then store sp a n;
          old);
      observe =
        (match probe with
        | Some { mem = Some f; _ } -> Some (f ~cu:cu_id ~group:g_index ~lds:g_lds)
        | _ -> None);
    }
  in

  let rebuild_sched cu =
    let slots = ref [] in
    let pos = ref 0 in
    List.iter
      (fun g ->
        Array.iter
          (fun w ->
            if w.Wave.state <> Wave.Retired then begin
              slots := { w; g; pos = !pos; live = true } :: !slots;
              incr pos
            end)
          g.g_waves)
      cu.groups;
    let sched = List.rev !slots in
    cu.sched <- Array.of_list sched;
    cu.by_simd <-
      Array.init cfg.simds_per_cu (fun simd ->
          Array.of_list (List.filter (fun s -> s.w.Wave.simd = simd) sched))
  in

  (* Greedy wave-to-SIMD placement; returns assignments or None. *)
  let place_waves cu =
    let w = Array.copy cu.simd_waves
    and v = Array.copy cu.simd_vgprs
    and s = Array.copy cu.simd_sgprs in
    let assign = Array.make waves_per_group (-1) in
    let ok = ref true in
    for i = 0 to waves_per_group - 1 do
      (* least-loaded SIMD that fits *)
      let best = ref (-1) in
      for simd = 0 to cfg.simds_per_cu - 1 do
        if
          w.(simd) < cfg.max_waves_per_simd
          && v.(simd) + usage.vgprs <= cfg.vgprs_per_simd
          && s.(simd) + usage.sgprs <= cfg.sgprs_per_simd
          && (!best < 0 || w.(simd) < w.(!best))
        then best := simd
      done;
      if !best < 0 then ok := false
      else begin
        assign.(i) <- !best;
        w.(!best) <- w.(!best) + 1;
        v.(!best) <- v.(!best) + usage.vgprs;
        s.(!best) <- s.(!best) + usage.sgprs
      end
    done;
    if !ok then Some assign else None
  in

  let try_dispatch_on cu now =
    if
      !next_group < total_groups
      && List.length cu.groups < cfg.max_groups_per_cu
      && cu.lds_used + lds_account <= cfg.lds_per_cu
    then
      match place_waves cu with
      | None -> false
      | Some assign ->
          let gi = !next_group in
          incr next_group;
          let view : Geom.group_view = { nd; gcoord = Geom.group_coord nd gi } in
          let waves =
            Array.init waves_per_group (fun wi ->
                let flat_base = wi * cfg.wave_size in
                let nlanes = min cfg.wave_size (group_items - flat_base) in
                Wave.create prog ~wid:wi ~nregs:kernel.nregs ~nlanes ~flat_base
                  ~view ~simd:assign.(wi))
          in
          let lds_mem = Bytes.make (max lds_total 4) '\000' in
          let g =
            {
              g_index = gi;
              lds_mem;
              g_waves = waves;
              g_mem = make_mem_ops ~g_index:gi ~g_lds:lds_mem ~cu_id:cu.cu_id;
              barrier_arrived = 0;
              retired_waves = 0;
              g_lds_account = lds_account;
            }
          in
          cu.groups <- cu.groups @ [ g ];
          cu.lds_used <- cu.lds_used + lds_account;
          Array.iter
            (fun simd ->
              cu.simd_waves.(simd) <- cu.simd_waves.(simd) + 1;
              cu.simd_vgprs.(simd) <- cu.simd_vgprs.(simd) + usage.vgprs;
              cu.simd_sgprs.(simd) <- cu.simd_sgprs.(simd) + usage.sgprs;
              cu.running.(simd) <- cu.running.(simd) + 1;
              cu.n_running <- cu.n_running + 1)
            assign;
          counters.groups_launched <- counters.groups_launched + 1;
          counters.waves_launched <- counters.waves_launched + waves_per_group;
          (match probe with
          | Some p -> p.dispatch ~at:now ~cu:cu.cu_id ~group:gi ~waves:waves_per_group
          | None -> ());
          rebuild_sched cu;
          cu.wake <- now;
          true
    else false
  in

  let dispatch_rr = ref 0 in
  let try_dispatch now =
    let progress = ref true in
    while !progress && !next_group < total_groups do
      progress := false;
      let n = cfg.n_cus in
      let start = !dispatch_rr in
      let placed = ref false in
      let i = ref 0 in
      while (not !placed) && !i < n do
        let cu = cus.((start + !i) mod n) in
        if try_dispatch_on cu now then begin
          placed := true;
          dispatch_rr := (start + !i + 1) mod n
        end;
        incr i
      done;
      if !placed then progress := true
    done
  in

  (* -------------------- retire / barrier -------------------- *)
  let retire_wave cu (s : slot) now =
    s.live <- false;
    if s.w.Wave.retire_accounted then ()
    else begin
    s.w.Wave.retire_accounted <- true;
    let simd = s.w.Wave.simd in
    cu.simd_waves.(simd) <- cu.simd_waves.(simd) - 1;
    cu.simd_vgprs.(simd) <- cu.simd_vgprs.(simd) - usage.vgprs;
    cu.simd_sgprs.(simd) <- cu.simd_sgprs.(simd) - usage.sgprs;
    cu.running.(simd) <- cu.running.(simd) - 1;
    cu.n_running <- cu.n_running - 1;
    s.g.retired_waves <- s.g.retired_waves + 1;
    if s.g.retired_waves = Array.length s.g.g_waves then begin
      cu.groups <- List.filter (fun g -> g != s.g) cu.groups;
      cu.lds_used <- cu.lds_used - s.g.g_lds_account;
      incr groups_completed;
      (match probe with
      | Some p -> p.retire ~at:now ~cu:cu.cu_id ~group:s.g.g_index
      | None -> ());
      rebuild_sched cu
    end
    end
  in

  let arrive_barrier cu (g : grp) ~wid now =
    g.barrier_arrived <- g.barrier_arrived + 1;
    (match probe with
    | Some p -> p.arrive ~at:now ~cu:cu.cu_id ~group:g.g_index ~wave:wid
    | None -> ());
    if g.barrier_arrived = Array.length g.g_waves then begin
      g.barrier_arrived <- 0;
      Array.iter
        (fun (w : Wave.t) ->
          if w.state = Wave.At_barrier then begin
            Wave.release_barrier w;
            cu.running.(w.simd) <- cu.running.(w.simd) + 1;
            cu.n_running <- cu.n_running + 1
          end)
        g.g_waves;
      counters.barriers_executed <- counters.barriers_executed + 1;
      (match probe with
      | Some p -> p.release ~at:now ~cu:cu.cu_id ~group:g.g_index
      | None -> ());
      true
    end
    else false
  in

  (* -------------------- issue -------------------- *)
  let on_branch () = counters.branches <- counters.branches + 1 in
  let sc =
    {
      next_wake = max_int;
      valu_used = false;
      vmem_used = false;
      lds_issued = false;
      salu_used = false;
      events = false;
    }
  in
  let note now t = if t > now && t < sc.next_wake then sc.next_wake <- t in
  let stall cu (s : slot) now ~site cause ~n =
    match probe with
    | Some p -> p.stall ~at:now ~cu:cu.cu_id ~group:s.g.g_index s.w ~site cause ~n
    | None -> ()
  in
  let unit_busy cu s now site t =
    stall cu s now ~site Probe.Unit_busy ~n:0;
    note now t;
    -1
  in

  (* One wave's turn: advance its control flow and issue its next
     instruction if the scoreboard and the target unit allow. *)
  let visit cu (s : slot) simd now =
    let w = s.w in
    match Wave.peek w ~now ~on_branch with
    | Wave.P_done ->
        retire_wave cu s now;
        sc.events <- true
    | Wave.P_barrier_arrived ->
        cu.running.(simd) <- cu.running.(simd) - 1;
        cu.n_running <- cu.n_running - 1;
        if arrive_barrier cu s.g ~wid:w.Wave.wid now then sc.events <- true
    | Wave.P_waiting ->
        stall cu s now ~site:w.Wave.barrier_site Probe.Barrier_wait ~n:0
    | Wave.P_stall ->
        (* control-flow operand not ready: conservative near wake *)
        note now (now + 1)
    | Wave.P_inst ->
        let e = w.Wave.cur in
        let site = e.site in
        let uses = e.uses and ready_at = w.Wave.ready_at in
        let until = ref (now + 1) and blocked = ref false in
        for k = 0 to Array.length uses - 1 do
          let r = ready_at.(uses.(k)) in
          if r > now then blocked := true;
          if r > !until then until := r
        done;
        if !blocked then begin
          stall cu s now ~site Probe.Scoreboard ~n:0;
          note now !until
        end
        else begin
          w.Wave.last_issue <- now;
          let fired = ref 0 in
          (* cycles the issue occupies its unit, -1 when it cannot issue *)
          let busy =
            match e.unit_ with
            | Wave.Valu ->
                if (not sc.valu_used) && cu.simd_busy_until.(simd) <= now then begin
                  fired := Wave.exec w e ~mem:s.g.g_mem;
                  let busy =
                    if e.trans then cfg.valu_trans_latency else cfg.valu_latency
                  in
                  cu.simd_busy_until.(simd) <- now + busy;
                  counters.valu_busy <- counters.valu_busy + busy;
                  counters.valu_insts <- counters.valu_insts + 1;
                  counters.valu_lane_ops <-
                    counters.valu_lane_ops + Wave.active_lanes w;
                  if e.def >= 0 then ready_at.(e.def) <- now + busy;
                  sc.valu_used <- true;
                  busy
                end
                else unit_busy cu s now site cu.simd_busy_until.(simd)
            | Wave.Salu ->
                if (not sc.salu_used) && cu.salu_busy_until <= now then begin
                  ignore (Wave.exec w e ~mem:s.g.g_mem);
                  cu.salu_busy_until <- now + 1;
                  counters.salu_busy <- counters.salu_busy + 1;
                  counters.salu_insts <- counters.salu_insts + 1;
                  if e.def >= 0 then ready_at.(e.def) <- now + cfg.salu_latency;
                  sc.salu_used <- true;
                  1
                end
                else unit_busy cu s now site cu.salu_busy_until
            | Wave.Lds ->
                if (not sc.lds_issued) && cu.lds_busy_until <= now then begin
                  let lanes = Wave.exec w e ~mem:s.g.g_mem in
                  cu.lds_busy_until <- now + cfg.lds_issue_cycles;
                  counters.lds_busy <- counters.lds_busy + cfg.lds_issue_cycles;
                  counters.lds_insts <- counters.lds_insts + 1;
                  counters.lds_lane_ops <- counters.lds_lane_ops + lanes;
                  (match e.mkind with
                  | Wave.MAtomic -> counters.atomics <- counters.atomics + 1
                  | Wave.MLoad | Wave.MStore -> ());
                  if e.def >= 0 then ready_at.(e.def) <- now + cfg.lds_latency;
                  sc.lds_issued <- true;
                  cfg.lds_issue_cycles
                end
                else unit_busy cu s now site cu.lds_busy_until
            | Wave.Vmem ->
                let is_store =
                  match e.mkind with Wave.MStore -> true | _ -> false
                in
                if sc.vmem_used || ms.Memsys.mem_busy_until.(cu.cu_id) > now then
                  unit_busy cu s now site ms.Memsys.mem_busy_until.(cu.cu_id)
                else if is_store && Memsys.store_would_stall ms ~cu:cu.cu_id ~now
                then begin
                  (* Charge the whole blocked span at once: the backlog
                     cannot change while the store is stalled, and idle
                     skip-ahead may never rescan the intervening cycles.
                     [wstall_counted_until] de-overlaps repeat scans of the
                     same episode, so each blocked cycle is counted exactly
                     once per CU. *)
                  let until = Memsys.store_stall_until ms ~cu:cu.cu_id in
                  let charged = max 0 (until - max now cu.wstall_counted_until) in
                  if charged > 0 then begin
                    counters.write_stalled <- counters.write_stalled + charged;
                    cu.wstall_counted_until <- until
                  end;
                  stall cu s now ~site Probe.Write_backlog ~n:charged;
                  note now until;
                  -1
                end
                else begin
                  let lanes = Wave.exec w e ~mem:s.g.g_mem in
                  let nlines = w.Wave.nlines in
                  (* atomics are processed at the L2: they occupy the CU's
                     vector memory unit only to issue, not per line *)
                  let busy =
                    match e.mkind with
                    | Wave.MAtomic -> 8
                    | Wave.MLoad | Wave.MStore -> 4 + (4 * (max 1 nlines - 1))
                  in
                  ms.Memsys.mem_busy_until.(cu.cu_id) <- now + busy;
                  counters.mem_unit_busy <- counters.mem_unit_busy + busy;
                  counters.vmem_insts <- counters.vmem_insts + 1;
                  if e.poll then begin
                    (* every active lane's flag poll is one spin iteration
                       (Per_item gives each lane its own slot) *)
                    counters.spin_iterations <- counters.spin_iterations + lanes;
                    stall cu s now ~site Probe.Spin ~n:lanes
                  end;
                  (match e.mkind with
                  | Wave.MLoad ->
                      counters.global_load_insts <- counters.global_load_insts + 1;
                      let t =
                        Memsys.load_timed ms ~cu:cu.cu_id ~now w.Wave.lines
                          ~n:nlines
                      in
                      if e.def >= 0 then ready_at.(e.def) <- t
                  | Wave.MStore ->
                      counters.global_store_insts <-
                        counters.global_store_insts + 1;
                      Memsys.store_timed ms ~cu:cu.cu_id ~now ~n:nlines
                  | Wave.MAtomic ->
                      counters.atomics <- counters.atomics + 1;
                      let t =
                        Memsys.atomic_timed ms ~cu:cu.cu_id ~now w.Wave.lines
                          ~n:nlines
                      in
                      if e.def >= 0 then ready_at.(e.def) <- t);
                  sc.vmem_used <- true;
                  busy
                end
          in
          if busy >= 0 then begin
            (match probe with
            | Some p -> p.issue ~at:now ~cu:cu.cu_id ~group:s.g.g_index w ~busy
            | None -> ());
            if !fired <> 0 then begin
              detected_at := Some now;
              (match probe with Some p -> p.trap ~at:now w | None -> ());
              raise Trap_detected
            end;
            Wave.consume w;
            note now (now + 1)
          end
        end
  in

  (* A scan visits only the slots of the SIMD whose issue turn it is, in
     schedule order from the rotating start. Waves of the other SIMDs
     matter only through whether any of them is running (they may issue
     within the next three cycles), which [cu.n_running] tracks. *)
  let scan_cu cu now =
    let simd = now mod cfg.simds_per_cu in
    sc.next_wake <- max_int;
    sc.valu_used <- false;
    sc.vmem_used <- false;
    sc.lds_issued <- false;
    sc.salu_used <- false;
    sc.events <- false;
    let other_simd_work = cu.n_running - cu.running.(simd) > 0 in
    let n = Array.length cu.sched in
    let start =
      match cfg.sched_policy with
      | Config.Greedy -> 0
      | Config.Round_robin ->
          cu.rr <- (cu.rr + 1) mod max 1 n;
          cu.rr
    in
    (* iterate a stable snapshot: retirement may rebuild the schedule *)
    let mine = cu.by_simd.(simd) in
    let m = Array.length mine in
    let first = ref 0 in
    while !first < m && mine.(!first).pos < start do incr first done;
    for k = 0 to m - 1 do
      let s = mine.((!first + k) mod m) in
      if s.live then visit cu s simd now
    done;
    if other_simd_work || sc.events then note now (now + 1);
    cu.wake <- sc.next_wake
  in

  (* -------------------- fault injection -------------------- *)
  let resident_slots () =
    Array.to_list cus
    |> List.concat_map (fun cu ->
           Array.to_list cu.sched |> List.filter (fun s -> s.live))
  in
  (* The flip that landed, if any. *)
  let try_inject target : Probe.flip option =
    match target with
    | T_vgpr | T_sgpr -> (
        match resident_slots () with
        | [] -> None
        | slots ->
            let s = List.nth slots (rand (List.length slots)) in
            let vector = target = T_vgpr in
            (* a vector flip prefers a divergent register, a scalar flip
               needs a uniform one *)
            let all = List.init kernel.nregs Fun.id in
            let regs = List.filter (fun r -> div.(r) = vector) all in
            let pool = if regs = [] && vector then all else regs in
            if pool = [] then None
            else begin
              let r = List.nth pool (rand (List.length pool)) in
              let lane = if vector then rand s.w.Wave.nlanes else -1 in
              let bit = rand 32 in
              (* scalar registers are one copy shared by the wavefront:
                 the flip is visible to every lane *)
              for l = 0 to s.w.Wave.nlanes - 1 do
                if lane < 0 || l = lane then
                  Wave.set_reg s.w r l
                    (F32.norm (Wave.get_reg s.w r l lxor (1 lsl bit)))
              done;
              Some
                (Probe.Flip_reg { wave = s.w; group = s.g.g_index; reg = r; lane; bit })
            end)
    | T_lds -> (
        let groups =
          Array.to_list cus
          |> List.concat_map (fun cu -> cu.groups)
          |> List.filter (fun g -> Bytes.length g.lds_mem >= 4)
        in
        match groups with
        | [] -> None
        | gs ->
            if lds_total < 4 then None
            else begin
              let g = List.nth gs (rand (List.length gs)) in
              let byte = rand lds_total in
              let bit = rand 8 in
              let c = Char.code (Bytes.get g.lds_mem byte) in
              Bytes.set g.lds_mem byte (Char.chr (c lxor (1 lsl bit)));
              Some (Probe.Flip_lds { group = g.g_index; byte; bit })
            end)
    | T_l1 ->
        let cu = rand cfg.n_cus in
        if Memsys.inject_l1_poison ms ~cu ~seed:(rand 1_000_000_007) then
          Option.map (fun p -> Probe.Flip_l1 p) ms.Memsys.poison
        else None
  in

  (* -------------------- main loop -------------------- *)
  let windows = ref [] in
  let last_window_snapshot = ref (Counters.create ()) in
  let next_window = ref window_cycles in
  let cycle = ref 0 in
  let outcome = ref Finished in
  (try
     let running = ref true in
     while !running do
       let now = !cycle in
       if now >= max_cycles then begin
         outcome := Hung;
         running := false
       end
       else begin
         try_dispatch now;
         (match !inject_pending with
         | Some p when now >= p.at_cycle -> (
             match try_inject p.target with
             | Some flip ->
                 inject_applied := true;
                 injected_at := Some now;
                 (match probe with Some p -> p.inject ~at:now flip | None -> ());
                 inject_pending := None
             | None -> ())
         | _ -> ());
         Array.iter
           (fun cu ->
             if opts.scan_every_cycle || cu.wake <= now then scan_cu cu now)
           cus;
         if now >= !next_window then begin
           let snap = Counters.copy counters in
           snap.Counters.cycles <- now;
           windows := Counters.delta snap !last_window_snapshot :: !windows;
           last_window_snapshot := snap;
           next_window := !next_window + window_cycles
         end;
         if !groups_completed >= total_groups then running := false
         else begin
           (* advance: skip ahead when every CU is provably idle *)
           let nxt = ref (now + 1) in
           let min_wake = ref max_int in
           Array.iter (fun cu -> if cu.wake < !min_wake then min_wake := cu.wake) cus;
           if
             (not opts.scan_every_cycle)
             && !min_wake > now + 1
             && !min_wake < max_int
           then nxt := !min_wake;
           if !min_wake = max_int && !next_group >= total_groups then begin
             (* nothing can ever run again: deadlock (e.g. barrier with
                retired waves). Treat as hang. *)
             outcome := Hung;
             running := false
           end;
           (match !inject_pending with
           | Some p when p.at_cycle > now && p.at_cycle < !nxt ->
               nxt := p.at_cycle
           | _ -> ());
           if !next_window < !nxt then nxt := !next_window;
           cycle := !nxt
         end
       end
     done
   with
  | Trap_detected -> outcome := Detected
  | Memsys.Fault msg -> outcome := Crashed msg);
  counters.cycles <- !cycle;
  (* Flush the final partial power window on every exit path (Finished,
     Hung, Detected, Crashed): the in-loop sampler only fires on window
     boundaries, and without this up to [window_cycles - 1] trailing
     cycles of activity would vanish from Power_model.report. *)
  let tail = Counters.delta (Counters.copy counters) !last_window_snapshot in
  if tail.Counters.cycles > 0 then windows := tail :: !windows;
  {
    cycles = !cycle;
    outcome = !outcome;
    counters;
    windows = Array.of_list (List.rev !windows);
    occupancy;
    usage;
    groups_completed = !groups_completed;
    inject_applied = !inject_applied;
    injected_at = !injected_at;
    detected_at = !detected_at;
  }
