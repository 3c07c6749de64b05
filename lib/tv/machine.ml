(** The validator's untimed lockstep machine.

    Translation validation needs many {e whole-kernel} executions on a
    tiny synthetic launch: one per candidate fault-injection experiment.
    The timed device simulator carries schedulers, caches and power
    models that are irrelevant here, so this module runs the same
    {!Gpu_sim.Wave} engine (the kernel lowered by {!Gpu_sim.Wave.decode}:
    identical functional semantics for SIMT masks, reconvergence,
    swizzles, F32 arithmetic) under a deterministic round-robin
    scheduler and hash-table memories:

    - all waves of all groups advance one instruction per scheduling
      pass, so the Inter-Group flag hand-off protocol makes progress
      (producer and consumer groups interleave, spins poll repeatedly);
    - memory starts out as a deterministic pseudo-random pattern — an
      unwritten word reads the same synthetic value in every run, so
      the original kernel, the transformed kernel and every fault run
      observe identical inputs;
    - every store is recorded as a per-location event stream (site id +
      value, in commit order), the raw material for the simulation
      relation: two runs are output-equivalent iff their streams agree
      on every non-exempt location;
    - an optional injection flips one register bit at the first dynamic
      execution of a chosen site by a chosen replica (lane parity for
      Intra, lane mod 3 for TMR, group parity for Inter) — the paper's
      single-bit-flip fault model, applied to the destination of one
      static instruction.

    Barriers release when every non-retired wave of the group has
    parked, which under whole-group lockstep is a valid linearization:
    the sanitizer separately establishes race-freedom, so any
    barrier-consistent interleaving computes the same result. A step
    cap plays the watchdog: runs that exceed it report [Hung]. *)

open Gpu_ir.Types
module Wave = Gpu_sim.Wave
module Geom = Gpu_sim.Geom

(* ------------------------------------------------------------------ *)
(* Plans, injections, results                                          *)
(* ------------------------------------------------------------------ *)

type plan = {
  p_kernel : kernel;
  p_nd : Geom.ndrange;
  p_args : int array;  (** one value per kernel parameter *)
  p_init : (int * int) list;  (** global words preset before the run *)
}

(** Which replica of a paired execution receives the flip. *)
type replica_sel =
  | Any
  | Lane_parity of int  (** Intra twins: flat local id land 1 *)
  | Lane_mod3 of int  (** TMR triples: flat local id mod 3 *)
  | Group_parity of int  (** Inter pairs: physical group index land 1 *)

type inject = { ij_site : int; ij_sel : replica_sel; ij_bit : int }

type stream_key = {
  sk_space : space;
  sk_group : int;  (** owning group for [Local]; -1 for [Global] *)
  sk_addr : int;
}

type event = { ev_site : int; ev_value : int; ev_group : int }

type outcome = Finished | Trapped of int | Hung

type result = {
  r_outcome : outcome;
  r_stores : (stream_key, event list) Hashtbl.t;
      (** per location, most recent event first *)
  r_injected : bool;
  r_steps : int;
}

(** Commit-order event stream of one location. *)
let events result key =
  match Hashtbl.find_opt result.r_stores key with
  | Some evs -> List.rev evs
  | None -> []

(** The stream in canonical (group-major) order: per-group commit order
    is deterministic and preserved; the interleaving {e across} groups
    at a shared global location is a race whose order carries no
    meaning (and shifts with the transforms' added instructions), so
    comparisons normalize it away. Groups ascend in logical order:
    physical = logical for the lane-level transforms, and the
    Inter-Group FCFS id hand-out assigns work-group ids in physical
    order under the lockstep scheduler. *)
let canonical_events result key =
  List.stable_sort
    (fun a b -> compare a.ev_group b.ev_group)
    (events result key)

(* ------------------------------------------------------------------ *)
(* Synthetic memory                                                    *)
(* ------------------------------------------------------------------ *)

(* An unwritten word reads a small deterministic value derived from its
   address: identical for every run over the same plan, harmless as an
   integer and denormal-tiny as an f32 bit pattern. The range is kept
   narrow (0..31) so that kernels comparing loads against small scalar
   arguments (e.g. a search key) actually take both branches — a
   validator run in which a kernel's guarded output store never fires
   would accept its no-comm ablation vacuously. *)
let synth salt addr =
  (((addr / 4) * 1103515245) + 12345 + (salt * 747796405)) lsr 8 land 0x1f

(** Byte offset of each LDS allocation in declaration order (the layout
    both this machine and the validator's exempt ranges use). *)
let lds_offsets (k : kernel) : (string * int * int) list =
  let off = ref 0 in
  List.map
    (fun (name, bytes) ->
      let o = !off in
      off := !off + bytes;
      (name, o, bytes))
    k.lds_allocs

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let default_step_limit = 4_000_000

exception Done of outcome

let run ?(step_limit = default_step_limit) ?inject (plan : plan) : result =
  let k = plan.p_kernel in
  let nd = plan.p_nd in
  Geom.validate nd;
  let ngroups = Geom.total_groups nd in
  let items = Geom.group_items nd in
  let offsets = lds_offsets k in
  let lds_base name =
    match List.find_opt (fun (n, _, _) -> n = name) offsets with
    | Some (_, o, _) -> o
    | None -> invalid_arg ("machine: unknown LDS allocation " ^ name)
  in
  let prog =
    Wave.decode k ~lds_base ~line_bytes:0 ~arg:(fun idx ->
        if idx < Array.length plan.p_args then plan.p_args.(idx)
        else invalid_arg "machine: argument index out of range")
  in
  let global : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  List.iter (fun (a, v) -> Hashtbl.replace global a v) plan.p_init;
  let stores : (stream_key, event list) Hashtbl.t = Hashtbl.create 256 in
  let steps = ref 0 in
  let injected = ref false in
  (* current execution context, read by the memory callbacks *)
  let cur_site = ref (-1) in
  let record sp g addr v =
    let key =
      { sk_space = sp; sk_group = (if sp = Global then -1 else g); sk_addr = addr }
    in
    let prev = Option.value ~default:[] (Hashtbl.find_opt stores key) in
    Hashtbl.replace stores key
      ({ ev_site = !cur_site; ev_value = v; ev_group = g } :: prev)
  in
  let groups =
    Array.init ngroups (fun g ->
        let lds : (int, int) Hashtbl.t = Hashtbl.create 64 in
        let mem_load sp a =
          match sp with
          | Global ->
              (match Hashtbl.find_opt global a with
              | Some v -> v
              | None -> synth 0 a)
          | Local ->
              (* Unwritten LDS reads zero: replica copies of the same
                 logical slot live at different offsets (and groups own
                 separate LDS), so an address-dependent synthetic value
                 would make replicas of a fault-free run disagree on
                 read-before-write slots and spuriously trap. *)
              (match Hashtbl.find_opt lds a with Some v -> v | None -> 0)
        in
        let mem_store sp a v =
          record sp g a v;
          match sp with
          | Global -> Hashtbl.replace global a v
          | Local -> Hashtbl.replace lds a v
        in
        let matomic op sp a v =
          let old = mem_load sp a in
          let module F32 = Gpu_ir.F32 in
          let wr nv = record sp g a nv;
            (match sp with
            | Global -> Hashtbl.replace global a nv
            | Local -> Hashtbl.replace lds a nv)
          in
          (match op with
          | A_poll -> ()
          | A_add -> wr (F32.norm (old + v))
          | A_sub -> wr (F32.norm (old - v))
          | A_xchg -> wr v
          | A_max_u -> wr (if F32.to_u v > F32.to_u old then v else old)
          | A_min_u -> wr (if F32.to_u v < F32.to_u old then v else old));
          old
        in
        let mcas sp a e n =
          let old = mem_load sp a in
          if old = e then begin
            record sp g a n;
            match sp with
            | Global -> Hashtbl.replace global a n
            | Local -> Hashtbl.replace lds a n
          end;
          old
        in
        let mem : Wave.mem_ops =
          { mload = mem_load; mstore = mem_store; matomic; mcas; observe = None }
        in
        let view = { Geom.nd; gcoord = Geom.group_coord nd g } in
        let nwaves = (items + 63) / 64 in
        let waves =
          Array.init nwaves (fun w ->
              Wave.create prog ~wid:w ~nregs:k.nregs
                ~nlanes:(min 64 (items - (w * 64)))
                ~flat_base:(w * 64) ~view ~simd:0)
        in
        (g, waves, mem))
  in
  let try_inject (w : Wave.t) g (e : Wave.entry) =
    match inject with
    | Some ij when (not !injected) && ij.ij_site = !cur_site -> (
        match e.def with
        | -1 -> ()
        | d ->
            let lane_ok l =
              let flat = w.Wave.flat_base + l in
              match ij.ij_sel with
              | Any -> true
              | Lane_parity p -> flat land 1 = p
              | Lane_mod3 p -> flat mod 3 = p
              | Group_parity p -> g land 1 = p
            in
            (* Flip the bit in every active lane of the selected
               replica: each redundant pair then carries exactly one
               faulty replica, so one run exercises the guard of every
               pair at once (a single-lane flip can land on a lane
               whose guarded store never executes and test nothing). *)
            for l = 0 to w.Wave.nlanes - 1 do
              if Wave.lane_active w l && lane_ok l then begin
                let v = Wave.get_reg w d l in
                Wave.set_reg w d l
                  (Gpu_ir.F32.norm (v lxor (1 lsl ij.ij_bit)));
                injected := true
              end
            done)
    | _ -> ()
  in
  let outcome =
    try
      let all_retired () =
        Array.for_all
          (fun (_, waves, _) ->
            Array.for_all (fun w -> w.Wave.state = Wave.Retired) waves)
          groups
      in
      while not (all_retired ()) do
        let progress = ref false in
        Array.iter
          (fun (g, waves, mem) ->
            Array.iter
              (fun w ->
                if w.Wave.state = Wave.Running then begin
                  match Wave.peek w ~now:0 ~on_branch:ignore with
                  | Wave.P_inst ->
                      let e = w.Wave.cur in
                      cur_site := e.site;
                      incr steps;
                      if !steps > step_limit then raise (Done Hung);
                      progress := true;
                      let r = Wave.exec w e ~mem in
                      (match e.inst with
                      | Trap _ when r <> 0 -> raise (Done (Trapped e.site))
                      | _ -> ());
                      try_inject w g e;
                      Wave.consume w
                  | Wave.P_barrier_arrived | Wave.P_done -> progress := true
                  | Wave.P_stall ->
                      (* control-only fuel exhaustion: charge a step so a
                         degenerate control loop meets the watchdog *)
                      incr steps;
                      if !steps > step_limit then raise (Done Hung);
                      progress := true
                  | Wave.P_waiting -> ()
                end)
              waves;
            (* barrier release: every non-retired wave parked *)
            let parked =
              Array.exists (fun w -> w.Wave.state = Wave.At_barrier) waves
              && Array.for_all
                   (fun w -> w.Wave.state <> Wave.Running)
                   waves
            in
            if parked then begin
              progress := true;
              Array.iter Wave.release_barrier waves
            end)
          groups;
        if not !progress && not (all_retired ()) then raise (Done Hung)
      done;
      Finished
    with Done o -> o
  in
  { r_outcome = outcome; r_stores = stores; r_injected = !injected; r_steps = !steps }
