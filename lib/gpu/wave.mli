(** Wavefront state and the pc-based interpreter.

    {!decode} lowers a kernel once per launch into a flat array: control
    operations with explicit jump targets that encode [If]/[While]
    reconvergence as mask-stack pushes and pops, and pre-decoded
    instructions (site id, issue unit, def and use registers, operands
    resolved to register-file rows or binary32 immediates, [Lds_base]
    and kernel arguments resolved for the launch). Every wave of the
    launch runs that array with a program counter, a 64-lane execution
    mask held as two 32-bit halves in native ints, and an int-array
    mask stack. Control is handled during {!peek} (near-free, as on
    GCN's scalar branch unit); instructions are returned to the compute
    unit for timed issue and executed functionally at issue time by
    {!exec}, which dispatches once per instruction and then loops over
    the register array. *)

open Gpu_ir.Types
module Site = Gpu_ir.Site

(** {1 Decoded programs} *)

type unit_kind = Gpu_trace.Sink.unit_kind = Valu | Salu | Vmem | Lds
type mem_kind = MLoad | MStore | MAtomic

type dop
(** An instruction's operation with its operands pre-resolved. *)

type entry = {
  site : Site.id;
  inst : inst;
  def : reg;  (** destination register, -1 when none *)
  drow : int;
  uses : reg array;  (** registers read, for the scoreboard *)
  unit_ : unit_kind;
  trans : bool;  (** transcendental VALU op (quarter rate) *)
  mkind : mem_kind;  (** meaningful for memory ops only *)
  poll : bool;  (** an [A_poll] flag read *)
  op : dop;
}
(** One issuable instruction. *)

type program
(** A kernel lowered for one launch, shared by all its waves. *)

val decode :
  ?scalar:(inst -> bool) ->
  lds_base:(string -> int) ->
  arg:(int -> int) ->
  line_bytes:int ->
  kernel ->
  program
(** Lower a kernel. [lds_base] and [arg] resolve LDS allocation names
    and kernel arguments; one they reject raises their exception when
    the instruction executes. [scalar] (default: never) marks ALU
    instructions that issue to the scalar unit. Global accesses gather
    their distinct cache lines of [line_bytes] bytes (none when 0). Site
    ids are {!Gpu_ir.Site.annotate}'s. *)

val nsites : program -> int

(** {1 Waves} *)

type state = Running | At_barrier | Retired

type t = {
  wid : int;
  nlanes : int;
  flat_base : int;  (** flat local id of lane 0 *)
  view : Geom.group_view;
  regs : int array;  (** nregs x 64, lane-major within a register *)
  ready_at : int array;  (** per-register scoreboard *)
  prog : program;
  mutable pc : int;
  mutable mlo : int;  (** exec mask, lanes 0-31 *)
  mutable mhi : int;  (** exec mask, lanes 32-63 *)
  mstack : int array;
  mutable sp : int;
  mutable cur : entry;  (** the pending instruction after {!P_inst} *)
  lines : int array;
      (** ascending distinct cache lines of the last global access *)
  mutable nlines : int;
  mutable state : state;
  simd : int;
  mutable last_issue : int;  (** cycle at which [cur] issued *)
  mutable retire_accounted : bool;
  mutable barrier_site : int;
      (** site id of the last barrier arrived at (-1 before the first) *)
}

val create :
  program ->
  wid:int -> nregs:int -> nlanes:int -> flat_base:int ->
  view:Geom.group_view -> simd:int -> t

val get_reg : t -> reg -> int -> int
val set_reg : t -> reg -> int -> int -> unit
val lane_active : t -> int -> bool
val active_lanes : t -> int

(** {1 Running} *)

type peek_result =
  | P_inst  (** [cur] is the next instruction, to be considered for issue *)
  | P_stall
  | P_barrier_arrived
  | P_waiting
  | P_done

val peek : ?fuel:int -> t -> now:int -> on_branch:(unit -> unit) -> peek_result
(** Advance through control flow to the next instruction, stall, barrier
    or retirement; [on_branch] is called for each branch decision.
    [fuel] (default 256) bounds control operations per call so a
    degenerate control-only loop yields to the watchdog. *)

val consume : t -> unit
(** Step past [cur] after it issued. *)

val release_barrier : t -> unit

(** Memory interface a wave executes against, provided per work-group. *)
type mem_ops = {
  mload : space -> int -> int;
  mstore : space -> int -> int -> unit;
  matomic : atomic_op -> space -> int -> int -> int;
  mcas : space -> int -> int -> int -> int;
  observe : (t -> mem_kind -> space -> int -> int -> int -> unit) option;
      (** per-lane observer (a probe's [mem]), called before each access
          is performed; [None] when no probe watches memory *)
}

val exec : t -> entry -> mem:mem_ops -> int
(** Execute functionally for all active lanes. Returns the active lane
    count of a memory access (its distinct global cache lines are left in
    [lines]), 1 for a [Trap] that fired, and 0 otherwise.
    @raise Memsys.Fault on wild accesses. *)
