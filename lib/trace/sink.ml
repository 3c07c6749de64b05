(** Scheduler-event taxonomy and the trace sink interface.

    The device emits one {!event} per observable scheduler action: group
    dispatch and retirement, per-wave instruction issue (tagged with the
    unit that accepted it), barrier arrival/release, and the reason a
    scanned wave could not issue ({!stall_cause}). Events carry plain
    integers — CU, SIMD, group and wave ids — so a sink never holds
    references into simulator state.

    The device reaches a sink through its trace probe
    ([Gpu_sim.Probe.of_sink]), synchronously and in simulation order, so a
    run's event stream is as deterministic as the run itself, whatever
    the harness [-j] worker count. *)

(** The issue unit that accepted an instruction (the wave engine's own
    classification). *)
type unit_kind = Valu | Salu | Vmem | Lds

let unit_name = function
  | Valu -> "valu"
  | Salu -> "salu"
  | Vmem -> "vmem"
  | Lds -> "lds"

(** Why a ready-to-scan wave did not issue this cycle. *)
type stall_cause =
  | Scoreboard  (** an operand's producing load has not completed *)
  | Unit_busy  (** the classified issue unit is occupied *)
  | Write_backlog  (** a store exceeded the tolerated write backlog *)
  | Barrier_wait  (** parked at a barrier, waiting for the group *)
  | Spin  (** issued an [A_poll] spin-loop poll (busy, not progressing) *)

let stall_name = function
  | Scoreboard -> "scoreboard"
  | Unit_busy -> "unit-busy"
  | Write_backlog -> "write-backlog"
  | Barrier_wait -> "barrier"
  | Spin -> "spin"

type event =
  | Group_dispatch of { cu : int; group : int; waves : int }
  | Group_retire of { cu : int; group : int }
  | Wave_issue of {
      cu : int;
      simd : int;
      group : int;
      wave : int;
      unit_ : unit_kind;
      busy : int;  (** cycles the unit is occupied by this issue *)
    }
  | Barrier_arrive of { cu : int; group : int; wave : int }
  | Barrier_release of { cu : int; group : int }
  | Stall of { cu : int; group : int; wave : int; cause : stall_cause }

(** A timestamped event ([at] is the simulated cycle). *)
type record = { at : int; ev : event }

(** A sink receives events synchronously, in simulation order. *)
type t = { emit : at:int -> event -> unit }

let null = { emit = (fun ~at:_ _ -> ()) }

(** [with_offset off sink] shifts every event [off] cycles later —
    used to splice the launches of a multi-pass benchmark into one
    monotonic stream. *)
let with_offset off sink =
  { emit = (fun ~at ev -> sink.emit ~at:(at + off) ev) }

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)
(* ------------------------------------------------------------------ *)

(** In-memory collector (the only sink the CLI needs). [cap] bounds the
    retained records — spin-heavy Inter-Group runs can emit millions of
    stall events; with a cap the collector keeps the first [cap] records
    and counts the rest as dropped instead of growing without bound. *)
type collector = {
  mutable rev_events : record list;
  mutable count : int;  (** events emitted, including dropped ones *)
  cap : int option;
  mutable dropped : int;
}

let collector ?cap () =
  (match cap with
  | Some c when c < 0 -> invalid_arg "Sink.collector: negative cap"
  | _ -> ());
  { rev_events = []; count = 0; cap; dropped = 0 }

let of_collector c =
  {
    emit =
      (fun ~at ev ->
        c.count <- c.count + 1;
        match c.cap with
        | Some cap when c.count - c.dropped > cap -> c.dropped <- c.dropped + 1
        | _ -> c.rev_events <- { at; ev } :: c.rev_events);
  }

let count c = c.count
let dropped c = c.dropped

(** Collected records in emission order (at most [cap] of them). *)
let records c = List.rev c.rev_events

(* ------------------------------------------------------------------ *)
(* Rendering (debug / golden-file friendly)                            *)
(* ------------------------------------------------------------------ *)

let event_to_string = function
  | Group_dispatch { cu; group; waves } ->
      Printf.sprintf "dispatch cu=%d group=%d waves=%d" cu group waves
  | Group_retire { cu; group } -> Printf.sprintf "retire cu=%d group=%d" cu group
  | Wave_issue { cu; simd; group; wave; unit_; busy } ->
      Printf.sprintf "issue cu=%d simd=%d group=%d wave=%d unit=%s busy=%d" cu
        simd group wave (unit_name unit_) busy
  | Barrier_arrive { cu; group; wave } ->
      Printf.sprintf "barrier-arrive cu=%d group=%d wave=%d" cu group wave
  | Barrier_release { cu; group } ->
      Printf.sprintf "barrier-release cu=%d group=%d" cu group
  | Stall { cu; group; wave; cause } ->
      Printf.sprintf "stall cu=%d group=%d wave=%d cause=%s" cu group wave
        (stall_name cause)

let record_to_string r = Printf.sprintf "%d: %s" r.at (event_to_string r.ev)

(** Streaming sink: renders each record as one text line straight to a
    channel, retaining nothing — constant memory regardless of how many
    events a run emits. The caller owns the channel (and flushes or
    closes it after the run). *)
let of_channel oc =
  {
    emit =
      (fun ~at ev ->
        output_string oc (record_to_string { at; ev });
        output_char oc '\n');
  }
