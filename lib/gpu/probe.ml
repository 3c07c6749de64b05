(** Launch observers behind one interface: a record of callbacks that
    {!Device.launch} calls, in simulation order, at its observable
    program points. The observers — trace sink, profile collector,
    provenance record, sanitizer shadow — are the constructors below and
    compose with {!both}; they only read simulator state, so a probed
    run is cycle-, counter- and output-identical to an unprobed one. *)

open Gpu_ir.Types
module Sink = Gpu_trace.Sink
module Collector = Gpu_prof.Collector
module Prov = Gpu_prof.Provenance
module Shadow = Gpu_san.Shadow

type stall_cause = Sink.stall_cause =
  | Scoreboard
  | Unit_busy
  | Write_backlog
  | Barrier_wait
  | Spin

(** A fault that landed. *)
type flip =
  | Flip_reg of { wave : Wave.t; group : int; reg : reg; lane : int; bit : int }
      (** one lane of [reg], or every lane when [lane] is -1 (scalar) *)
  | Flip_lds of { group : int; byte : int; bit : int }
  | Flip_l1 of Memsys.poison

type t = {
  dispatch : at:int -> cu:int -> group:int -> waves:int -> unit;
  retire : at:int -> cu:int -> group:int -> unit;
  arrive : at:int -> cu:int -> group:int -> wave:int -> unit;
  release : at:int -> cu:int -> group:int -> unit;
  issue : at:int -> cu:int -> group:int -> Wave.t -> busy:int -> unit;
      (** the wave's [cur] issued, holding its unit [busy] cycles; called
          once it executed and its timing applied, before any trap it
          fired is raised *)
  stall :
    at:int -> cu:int -> group:int -> Wave.t -> site:int -> stall_cause ->
    n:int -> unit;
      (** a scan saw the wave held at [site] (for [Barrier_wait], the
          barrier's, -1 before any). [n] is what the sighting adds to the
          run's counters: write-stall cycles newly charged for
          [Write_backlog], polling lanes for [Spin], 0 otherwise. *)
  mem :
    (cu:int -> group:int -> lds:Bytes.t ->
    Wave.t -> Wave.mem_kind -> space -> int -> int -> int -> unit)
    option;
      (** per-lane memory observer, specialized once per dispatched group
          and called as [f wave kind space addr lane v] {e before} the
          access, so one that faults is still seen ({!Wave.mem_ops});
          [None] leaves memory instructions unobserved *)
  inject : at:int -> flip -> unit;
  trap : at:int -> Wave.t -> unit;
      (** the wave's [cur] fired an output-comparison trap *)
}

let nop =
  {
    dispatch = (fun ~at:_ ~cu:_ ~group:_ ~waves:_ -> ());
    retire = (fun ~at:_ ~cu:_ ~group:_ -> ());
    arrive = (fun ~at:_ ~cu:_ ~group:_ ~wave:_ -> ());
    release = (fun ~at:_ ~cu:_ ~group:_ -> ());
    issue = (fun ~at:_ ~cu:_ ~group:_ _ ~busy:_ -> ());
    stall = (fun ~at:_ ~cu:_ ~group:_ _ ~site:_ _ ~n:_ -> ());
    mem = None;
    inject = (fun ~at:_ _ -> ());
    trap = (fun ~at:_ _ -> ());
  }

(** Both probes, [a]'s callback first at every point. *)
let both a b =
  {
    dispatch = (fun ~at ~cu ~group ~waves ->
      a.dispatch ~at ~cu ~group ~waves; b.dispatch ~at ~cu ~group ~waves);
    retire = (fun ~at ~cu ~group ->
      a.retire ~at ~cu ~group; b.retire ~at ~cu ~group);
    arrive = (fun ~at ~cu ~group ~wave ->
      a.arrive ~at ~cu ~group ~wave; b.arrive ~at ~cu ~group ~wave);
    release = (fun ~at ~cu ~group ->
      a.release ~at ~cu ~group; b.release ~at ~cu ~group);
    issue = (fun ~at ~cu ~group w ~busy ->
      a.issue ~at ~cu ~group w ~busy; b.issue ~at ~cu ~group w ~busy);
    stall = (fun ~at ~cu ~group w ~site cause ~n ->
      a.stall ~at ~cu ~group w ~site cause ~n;
      b.stall ~at ~cu ~group w ~site cause ~n);
    mem =
      (match (a.mem, b.mem) with
      | None, m | m, None -> m
      | Some fa, Some fb ->
          Some (fun ~cu ~group ~lds ->
            let fa = fa ~cu ~group ~lds and fb = fb ~cu ~group ~lds in
            fun w kind sp addr lane v ->
              fa w kind sp addr lane v; fb w kind sp addr lane v));
    inject = (fun ~at f -> a.inject ~at f; b.inject ~at f);
    trap = (fun ~at w -> a.trap ~at w; b.trap ~at w);
  }

(** The attached probes of a list, composed in list order. *)
let compose ps =
  match List.filter_map Fun.id ps with
  | [] -> None
  | p :: rest -> Some (List.fold_left both p rest)

(** Scheduler events for a trace sink. *)
let of_sink (s : Sink.t) =
  let emit = s.emit in
  {
    nop with
    dispatch =
      (fun ~at ~cu ~group ~waves -> emit ~at (Group_dispatch { cu; group; waves }));
    retire = (fun ~at ~cu ~group -> emit ~at (Group_retire { cu; group }));
    arrive =
      (fun ~at ~cu ~group ~wave -> emit ~at (Barrier_arrive { cu; group; wave }));
    release = (fun ~at ~cu ~group -> emit ~at (Barrier_release { cu; group }));
    issue =
      (fun ~at ~cu ~group (w : Wave.t) ~busy ->
        emit ~at
          (Wave_issue
             { cu; simd = w.simd; group; wave = w.wid; unit_ = w.cur.unit_; busy }));
    stall =
      (fun ~at ~cu ~group (w : Wave.t) ~site:_ cause ~n:_ ->
        emit ~at (Stall { cu; group; wave = w.wid; cause }));
  }

(** Per-site charges into a collector sized for the [nsites] sites of
    kernel [kname] ([invalid_arg] otherwise). The cycle-exact fields are
    charged at the program points that charge the launch's [counters],
    so per-site sums reconcile with the run totals. *)
let of_collector (c : Collector.t) ~(counters : Counters.t) ~kname ~nsites =
  if c.nsites <> nsites then
    invalid_arg
      (Printf.sprintf "launch: profile collector has %d sites but kernel %s has %d"
         c.nsites kname nsites);
  let bump a site n = a.(site) <- a.(site) + n in
  (* Only [Memsys.load_timed] moves the cache counters, and a load's
     issue call follows its timing: the change since the previous issue
     call is this load's cache outcome. *)
  let seen = Array.make 4 0 in
  let charge i a now site =
    bump a site (now - seen.(i));
    seen.(i) <- now
  in
  {
    nop with
    issue =
      (fun ~at:_ ~cu:_ ~group:_ (w : Wave.t) ~busy ->
        let site = w.cur.site in
        bump c.issues site 1;
        bump
          (match w.cur.unit_ with
          | Valu -> c.valu_busy
          | Salu -> c.salu_busy
          | Vmem -> c.mem_unit_busy
          | Lds -> c.lds_busy)
          site busy;
        charge 0 c.l1_hits counters.l1_hits site;
        charge 1 c.l1_misses counters.l1_misses site;
        charge 2 c.l2_hits counters.l2_hits site;
        charge 3 c.l2_misses counters.l2_misses site);
    stall =
      (fun ~at:_ ~cu:_ ~group:_ _ ~site cause ~n ->
        match cause with
        | Scoreboard -> bump c.stall_scoreboard site 1
        | Unit_busy -> bump c.stall_unit_busy site 1
        | Write_backlog ->
            bump c.write_stalled site n;
            bump c.stall_write_backlog site 1
        | Barrier_wait -> if site >= 0 then bump c.stall_barrier site 1
        | Spin -> bump c.spin_iterations site n);
  }

(* Which structure holds the corrupted value; followed only until the
   first consuming instruction is found. *)
type taint =
  | Taint_none
  | Taint_reg of { t_wave : Wave.t; t_reg : reg; t_lane : int }
      (** [t_lane] is -1 for a scalar register (every lane) *)
  | Taint_lds of { t_group : int; t_addr : int }  (** word-aligned *)
  | Taint_l1

(** Fills a provenance record from the injection it is told about: the
    flipped value is followed until an instruction consumes it or a
    write kills it, and a trap records where detection fired. Dynamic
    instruction indices count the launch's issued instructions. *)
let of_provenance (p : Prov.t) ~(counters : Counters.t) ~ms =
  let taint = ref Taint_none in
  let issued () =
    counters.valu_insts + counters.salu_insts + counters.vmem_insts
    + counters.lds_insts
  in
  let consumed (w : Wave.t) ~index =
    p.first_use <-
      Some
        {
          u_site = w.cur.site;
          u_cycle = w.last_issue;
          u_inst_index = index;
          u_inst = Gpu_ir.Pp.string_of_inst w.cur.inst;
        }
  in
  (* A read of the tainted lanes is consumption; a full overwrite of them
     before any read kills the fault (dead-value masking), unless [kill]
     is off. Swizzle reads across lanes, so it consumes whatever the
     tainted lane's active bit. *)
  let check_regs (w : Wave.t) ~index ~kill =
    match !taint with
    | Taint_reg { t_wave; t_reg; t_lane } when t_wave == w && p.first_use = None
      ->
        let e = w.cur in
        let is_swizzle = match e.inst with Swizzle _ -> true | _ -> false in
        let some_active, all_active =
          if t_lane >= 0 then
            let a = Wave.lane_active w t_lane in
            (a, a)
          else
            let n = Wave.active_lanes w in
            (n > 0, n = w.nlanes)
        in
        if Array.exists (fun r -> r = t_reg) e.uses && (is_swizzle || some_active)
        then consumed w ~index
        else if kill && e.def = t_reg && all_active then begin
          taint := Taint_none;
          p.overwritten <- true
        end
    | _ -> ()
  in
  {
    nop with
    issue =
      (fun ~at:_ ~cu:_ ~group:_ w ~busy:_ ->
        check_regs w ~index:(issued ()) ~kill:true);
    mem =
      Some
        (fun ~cu ~group ~lds:_ w kind sp addr _ _ ->
          (* an access reads its registers before it can fault: count the
             read here, indexed as the issue will count it; a write waits
             for the issue, which a faulting access never reaches *)
          check_regs w ~index:(issued () + 1) ~kill:false;
          if p.first_use = None then
            match (!taint, sp, kind) with
            | Taint_lds { t_group; t_addr }, Local, MStore
              when t_group = group && addr = t_addr ->
                (* the overwrite refreshes the word: the fault is dead *)
                taint := Taint_none;
                p.overwritten <- true
            | Taint_lds { t_group; t_addr }, Local, (MLoad | MAtomic)
              when t_group = group && addr = t_addr ->
                consumed w ~index:(issued ())
            | Taint_l1, Global, MLoad -> (
                (* poison is applied on the cached path only: a load that
                   differs from the clean image consumes the fault; a wild
                   address is left to fault in the access itself *)
                match Memsys.read32 ms addr with
                | clean ->
                    if Memsys.load32 ms ~cu addr <> clean then
                      consumed w ~index:(issued ())
                | exception Memsys.Fault _ -> ())
            | _ -> ());
    inject =
      (fun ~at flip ->
        (match flip with
        | Flip_reg { wave; group; reg; lane; bit } ->
            taint := Taint_reg { t_wave = wave; t_reg = reg; t_lane = lane };
            p.target <- Some (if lane < 0 then S_sgpr else S_vgpr);
            p.bit <- bit;
            p.desc <-
              (if lane < 0 then Printf.sprintf "s%d all lanes" reg
               else Printf.sprintf "v%d lane %d" reg lane)
              ^ Printf.sprintf " (group %d, wave %d)" group wave.wid
        | Flip_lds { group; byte; bit } ->
            taint := Taint_lds { t_group = group; t_addr = byte land lnot 3 };
            p.target <- Some S_lds;
            p.bit <- ((byte land 3) * 8) + bit;
            p.desc <- Printf.sprintf "LDS byte %d (group %d)" byte group
        | Flip_l1 pz ->
            taint := Taint_l1;
            p.target <- Some S_l1;
            p.bit <- pz.p_bit;
            p.desc <-
              Printf.sprintf "L1 line %d word %d (CU %d)" pz.p_line pz.p_word
                pz.p_cu);
        p.inject_cycle <- at;
        p.inject_inst_index <- issued ());
    trap =
      (fun ~at w ->
        p.detect_site <- w.cur.site;
        p.detect_cycle <- at;
        p.detect_inst_index <- issued ());
  }

(** Starts a sanitizer launch on the shadow, then checks every lane's
    memory access and every barrier release against it. *)
let of_shadow sh ~ms =
  Shadow.begin_launch sh;
  {
    nop with
    release = (fun ~at:_ ~cu:_ ~group -> Shadow.barrier_release sh ~group);
    mem =
      Some
        (fun ~cu:_ ~group ~lds ->
          let lds_bytes = Bytes.length lds in
          fun w kind sp addr lane value ->
            let coord =
              { Shadow.c_group = group; c_wave = w.wid; c_item = w.flat_base + lane }
            in
            let site = w.cur.site and store = kind = MStore in
            let kind : Shadow.access_kind =
              match kind with
              | MLoad -> Read
              | MStore -> Write
              | MAtomic when value = 0 -> Atomic_read
              | MAtomic -> Atomic_rw
            in
            (* a store of the word's current contents is benign:
               unobservable, hence race-free (read the old value only in
               bounds — OOB accesses must reach the shadow's range check,
               not fault here) *)
            match sp with
            | Global ->
                let unchanged =
                  store
                  && addr land 3 = 0
                  && Shadow.in_some_range sh addr
                  && Memsys.read32 ms addr = value
                in
                Shadow.global_access sh ~site ~coord ~kind ~unchanged ~addr ()
            | Local ->
                let unchanged =
                  store
                  && addr >= 0
                  && addr land 3 = 0
                  && addr + 4 <= lds_bytes
                  && Int32.to_int (Bytes.get_int32_le lds addr) = value
                in
                Shadow.lds_access sh ~site ~coord ~kind ~unchanged ~addr
                  ~lds_bytes ());
  }

(* The shadow's host side: allocations and host writes between launches. *)
let host_alloc san ~addr ~size =
  Option.iter (fun s -> Shadow.note_alloc s ~addr ~size) san

let host_free_all san = Option.iter Shadow.reset_allocs san
let host_write san addr = Option.iter (fun s -> Shadow.host_write s addr) san
