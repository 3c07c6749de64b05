(** Wavefront state and the pc-based interpreter.

    A kernel is lowered once per launch ({!decode}) into a flat array of
    control operations and pre-decoded instructions; every wave of the
    launch runs that array with its own program counter, a 64-lane
    execution mask held as two 32-bit halves in native ints, and an int
    array of saved masks, exactly as SIMT hardware does with its
    reconvergence stack:

    - [If] pushes the saved mask and the not-taken mask, runs the taken
      lanes, then the not-taken lanes, and restores the saved mask at
      the join;
    - [While] pushes the saved mask; lanes leave the loop individually
      as their condition goes false, and the saved mask is restored when
      no lane remains;
    - [Barrier] parks the wavefront until its work-group releases it.

    Control operations are performed during {!peek} (it models the
    near-free SALU branch handling of GCN); each costs one unit of the
    per-call control budget, one unit per reconvergence-stack step of
    the structured program, so a control-only loop yields to the
    watchdog. Only real instructions are returned to the compute unit
    for timed issue; functional execution happens at issue time in
    {!exec}. *)

open Gpu_ir.Types
module F32 = Gpu_ir.F32
module Site = Gpu_ir.Site

(* ------------------------------------------------------------------ *)
(* Decoded program                                                     *)
(* ------------------------------------------------------------------ *)

type unit_kind = Gpu_trace.Sink.unit_kind = Valu | Salu | Vmem | Lds
type mem_kind = MLoad | MStore | MAtomic

type opnd = { row : int; imm : int }
(** A register operand reads [regs.(row + lane)] ([row] = register * 64);
    an immediate has [row = -1] and its binary32 pattern in [imm]. *)

type dop =
  | D_bin of (int -> int -> int) * opnd * opnd
  | D_un of (int -> int) * opnd
  | D_select of opnd * opnd * opnd
  | D_mad of opnd * opnd * opnd
  | D_fma of opnd * opnd * opnd
  | D_special of special
  | D_load of space * opnd
  | D_store of space * opnd * opnd
  | D_atomic of atomic_op * space * opnd * opnd
  | D_cas of space * opnd * opnd * opnd
  | D_swizzle of swizzle * opnd
  | D_trap of opnd
  | D_raise of exn  (** an argument or LDS name the launch cannot resolve *)

type entry = {
  site : Site.id;
  inst : inst;
  def : reg;  (** destination register, -1 when none *)
  drow : int;  (** [def * 64] *)
  uses : reg array;  (** registers read, for the scoreboard *)
  unit_ : unit_kind;
  trans : bool;  (** transcendental VALU op (quarter rate) *)
  mkind : mem_kind;  (** meaningful for memory ops only *)
  poll : bool;  (** an [A_poll] flag read *)
  op : dop;
}

type op =
  | C_issue of entry
  | C_barrier of Site.id
  | C_step  (** end of a statement list, or a fence *)
  | C_goto of int  (** end of a loop body: back to the loop header *)
  | C_if of { cond : opnd; creg : reg; else_pc : int; join_pc : int }
  | C_else of int
      (** after the taken lanes: switch to the not-taken lanes, or
          restore and jump to the join when there are none *)
  | C_restore  (** reconvergence after the not-taken lanes *)
  | C_loop  (** loop entry: save the mask *)
  | C_test of { cond : opnd; creg : reg; exit_pc : int }
  | C_exit

type program = {
  code : op array;
  nsites : int;
  stack_words : int;  (** mask-stack ints the deepest nesting needs *)
  line_bytes : int;  (** cache-line size; 0 disables line gathering *)
  snapshot : int array;  (** swizzle source lanes; launches are single-threaded *)
}

(* -------------------- evaluation helpers -------------------- *)

let[@inline] tof v = Int32.float_of_bits (Int32.of_int v)
let[@inline] off x = F32.norm (Int32.to_int (Int32.bits_of_float x))
let[@inline] unsigned v = v land 0xFFFFFFFF

let ibin_fn : ibin -> int -> int -> int = function
  | Add -> fun a b -> F32.norm (a + b)
  | Sub -> fun a b -> F32.norm (a - b)
  | Mul -> fun a b -> F32.norm (a * b)
  | Div_s -> fun a b -> if b = 0 then 0 else F32.norm (a / b)
  | Div_u ->
      fun a b ->
        let ub = unsigned b in
        if ub = 0 then 0 else F32.norm (unsigned a / ub)
  | Rem_s -> fun a b -> if b = 0 then 0 else F32.norm (a mod b)
  | Rem_u ->
      fun a b ->
        let ub = unsigned b in
        if ub = 0 then 0 else F32.norm (unsigned a mod ub)
  | And -> fun a b -> F32.norm (a land b)
  | Or -> fun a b -> F32.norm (a lor b)
  | Xor -> fun a b -> F32.norm (a lxor b)
  | Shl -> fun a b -> F32.norm (a lsl (unsigned b land 31))
  | Lshr -> fun a b -> F32.norm (unsigned a lsr (unsigned b land 31))
  | Ashr -> fun a b -> F32.norm (a asr (unsigned b land 31))
  | Min_s -> fun (a : int) b -> if a <= b then a else b
  | Max_s -> fun (a : int) b -> if a >= b then a else b
  | Min_u -> fun a b -> if unsigned a < unsigned b then a else b
  | Max_u -> fun a b -> if unsigned a > unsigned b then a else b
  | Mulhi_u -> fun a b -> F32.norm ((unsigned a * unsigned b) lsr 32)

let fbin_fn : fbin -> int -> int -> int = function
  | Fadd -> fun a b -> off (tof a +. tof b)
  | Fsub -> fun a b -> off (tof a -. tof b)
  | Fmul -> fun a b -> off (tof a *. tof b)
  | Fdiv -> fun a b -> off (tof a /. tof b)
  | Fmin ->
      fun a b ->
        let fa = tof a and fb = tof b in
        off (if fa < fb || fb <> fb then fa else fb)
  | Fmax ->
      fun a b ->
        let fa = tof a and fb = tof b in
        off (if fa > fb || fb <> fb then fa else fb)

let funary_fn : funary -> int -> int = function
  | Fneg -> fun a -> off (-.tof a)
  | Fabs -> fun a -> off (Float.abs (tof a))
  | Fsqrt -> fun a -> off (sqrt (tof a))
  | Frsqrt -> fun a -> off (1.0 /. sqrt (tof a))
  | Frcp -> fun a -> off (1.0 /. tof a)
  | Fexp -> fun a -> off (exp (tof a))
  | Flog -> fun a -> off (log (tof a))
  | Fsin -> fun a -> off (sin (tof a))
  | Fcos -> fun a -> off (cos (tof a))
  | Ffloor -> fun a -> off (Float.floor (tof a))
  | Fround -> fun a -> off (Float.round (tof a))

let funary_is_trans = function
  | Fsqrt | Frsqrt | Frcp | Fexp | Flog | Fsin | Fcos -> true
  | Fneg | Fabs | Ffloor | Fround -> false

let icmp_fn : icmp -> int -> int -> int = function
  | Ieq -> fun (a : int) b -> if a = b then 1 else 0
  | Ine -> fun (a : int) b -> if a <> b then 1 else 0
  | Ilt_s -> fun (a : int) b -> if a < b then 1 else 0
  | Ile_s -> fun (a : int) b -> if a <= b then 1 else 0
  | Igt_s -> fun (a : int) b -> if a > b then 1 else 0
  | Ige_s -> fun (a : int) b -> if a >= b then 1 else 0
  | Ilt_u -> fun a b -> if unsigned a < unsigned b then 1 else 0
  | Ige_u -> fun a b -> if unsigned a >= unsigned b then 1 else 0

let fcmp_fn : fcmp -> int -> int -> int = function
  | Feq -> fun a b -> if tof a = tof b then 1 else 0
  | Fne -> fun a b -> if tof a <> tof b then 1 else 0
  | Flt -> fun a b -> if tof a < tof b then 1 else 0
  | Fle -> fun a b -> if tof a <= tof b then 1 else 0
  | Fgt -> fun a b -> if tof a > tof b then 1 else 0
  | Fge -> fun a b -> if tof a >= tof b then 1 else 0

let cvt_fn : cvt -> int -> int = function
  | S32_to_f32 -> fun a -> off (float_of_int a)
  | U32_to_f32 -> fun a -> off (float_of_int (unsigned a))
  | F32_to_s32 -> fun a -> F32.norm (int_of_float (tof a))
  | F32_to_u32 ->
      fun a ->
        let x = tof a in
        if x <> x || x <= -1.0 then 0 else F32.norm (int_of_float x)
  | Bitcast -> fun a -> a

let ident a = a

(* -------------------- lowering -------------------- *)

let opnd = function
  | Reg r -> { row = r * 64; imm = 0 }
  | Imm n -> { row = -1; imm = Int32.to_int n }
  | Imm_f32 x -> { row = -1; imm = F32.of_float x }

let creg = function Reg r -> r | Imm _ | Imm_f32 _ -> -1

let const v = D_un (ident, { row = -1; imm = v })

let lazily f x = match f x with v -> const v | exception e -> D_raise e

let dop ~lds_base ~arg = function
  | Iarith (op, _, a, b) -> D_bin (ibin_fn op, opnd a, opnd b)
  | Farith (op, _, a, b) -> D_bin (fbin_fn op, opnd a, opnd b)
  | Funary (op, _, a) -> D_un (funary_fn op, opnd a)
  | Icmp (op, _, a, b) -> D_bin (icmp_fn op, opnd a, opnd b)
  | Fcmp (op, _, a, b) -> D_bin (fcmp_fn op, opnd a, opnd b)
  | Select (_, c, x, y) -> D_select (opnd c, opnd x, opnd y)
  | Mov (_, a) -> D_un (ident, opnd a)
  | Cvt (op, _, a) -> D_un (cvt_fn op, opnd a)
  | Mad (_, a, b, c) -> D_mad (opnd a, opnd b, opnd c)
  | Fma (_, a, b, c) -> D_fma (opnd a, opnd b, opnd c)
  | Special (Lds_base name, _) -> lazily lds_base name
  | Special (s, _) -> D_special s
  | Arg (_, idx) -> lazily arg idx
  | Load (sp, _, a) -> D_load (sp, opnd a)
  | Store (sp, a, v) -> D_store (sp, opnd a, opnd v)
  | Atomic (op, sp, _, a, v) -> D_atomic (op, sp, opnd a, opnd v)
  | Cas (sp, _, a, e, n) -> D_cas (sp, opnd a, opnd e, opnd n)
  | Swizzle (k, _, a) -> D_swizzle (k, opnd a)
  | Trap v -> D_trap (opnd v)
  | Barrier | Fence _ -> invalid_arg "Wave.decode: not an issuable instruction"

let entry ~scalar ~lds_base ~arg site (i : inst) =
  let def = match inst_def i with Some d -> d | None -> -1 in
  let space_unit = function Global -> Vmem | Local -> Lds in
  let unit_, mkind =
    match i with
    | Load (sp, _, _) -> (space_unit sp, MLoad)
    | Store (sp, _, _) -> (space_unit sp, MStore)
    | Atomic (_, sp, _, _, _) | Cas (sp, _, _, _, _) -> (space_unit sp, MAtomic)
    | Trap _ | Swizzle _ -> (Valu, MLoad)
    | _ -> ((if scalar i then Salu else Valu), MLoad)
  in
  {
    site;
    inst = i;
    def;
    drow = def * 64;
    uses =
      Array.of_list
        (List.filter_map
           (function Reg r -> Some r | Imm _ | Imm_f32 _ -> None)
           (inst_uses i));
    unit_;
    trans = (match i with Funary (op, _, _) -> funary_is_trans op | _ -> false);
    mkind;
    poll = (match i with Atomic (A_poll, _, _, _, _) -> true | _ -> false);
    op = dop ~lds_base ~arg i;
  }

(** Lower [k] for one launch. [lds_base] and [arg] resolve LDS
    allocation names and kernel arguments; a name or index they reject
    raises their exception when the instruction executes. [scalar]
    classifies ALU instructions that issue to the scalar unit. Global
    accesses gather their distinct cache lines of [line_bytes] (none
    when 0). Site ids are {!Gpu_ir.Site.annotate}'s. *)
let decode ?(scalar = fun _ -> false) ~lds_base ~arg ~line_bytes (k : kernel) :
    program =
  let abody, nsites = Site.annotate k.body in
  let code = ref (Array.make 64 C_exit) in
  let len = ref 0 in
  let push op =
    if !len = Array.length !code then begin
      let bigger = Array.make (2 * !len) C_exit in
      Array.blit !code 0 bigger 0 !len;
      code := bigger
    end;
    !code.(!len) <- op;
    incr len;
    !len - 1
  in
  let set pc op = !code.(pc) <- op in
  let words = ref 0 and max_words = ref 0 in
  let grow n =
    words := !words + n;
    if !words > !max_words then max_words := !words
  in
  let rec stmts ss =
    List.iter stmt ss;
    ignore (push C_step)
  and stmt = function
    | Site.A_inst (sid, Barrier) -> ignore (push (C_barrier sid))
    | Site.A_inst (_, Fence _) ->
        (* ordering is implicit in the issue-time memory model *)
        ignore (push C_step)
    | Site.A_inst (sid, i) ->
        ignore (push (C_issue (entry ~scalar ~lds_base ~arg sid i)))
    | Site.A_if (c, th, el) ->
        let at = push C_exit in
        grow 4;
        stmts th;
        let at_else = push C_exit in
        stmts el;
        ignore (push C_restore);
        words := !words - 4;
        set at
          (C_if { cond = opnd c; creg = creg c; else_pc = at_else + 1; join_pc = !len });
        set at_else (C_else !len)
    | Site.A_while (h, c, b) ->
        ignore (push C_loop);
        grow 2;
        let header = !len in
        stmts h;
        let test = push C_exit in
        List.iter stmt b;
        ignore (push (C_goto header));
        words := !words - 2;
        set test (C_test { cond = opnd c; creg = creg c; exit_pc = !len })
  in
  stmts abody;
  ignore (push C_exit);
  {
    code = Array.sub !code 0 !len;
    nsites;
    stack_words = !max_words;
    line_bytes;
    snapshot = Array.make 64 0;
  }

let nsites p = p.nsites

(* ------------------------------------------------------------------ *)
(* Wave state                                                          *)
(* ------------------------------------------------------------------ *)

type state = Running | At_barrier | Retired

type t = {
  wid : int;  (** wave index within its group *)
  nlanes : int;
  flat_base : int;  (** flat local id of lane 0 *)
  view : Geom.group_view;
  regs : int array;  (** nregs x 64, lane-major within register *)
  ready_at : int array;  (** per-register scoreboard *)
  prog : program;
  mutable pc : int;
  mutable mlo : int;  (** exec mask, lanes 0-31 *)
  mutable mhi : int;  (** exec mask, lanes 32-63 *)
  mstack : int array;  (** saved masks, two ints per mask *)
  mutable sp : int;
  mutable cur : entry;  (** the instruction at [pc] after {!P_inst} *)
  lines : int array;  (** distinct cache lines of the last global access *)
  mutable nlines : int;
  mutable state : state;
  simd : int;
  mutable last_issue : int;  (** cycle [cur] issued, set before it executes *)
  mutable retire_accounted : bool;
      (** set once the scheduler has released this wave's resources; a wave
          can appear in two scheduler arrays across a rebuild, so release
          must be idempotent *)
  mutable barrier_site : int;
      (** site id of the last barrier this wave arrived at (-1 before the
          first); lets the profiler attribute barrier-wait observations *)
}

let no_entry =
  {
    site = -1;
    inst = Barrier;
    def = -1;
    drow = -64;
    uses = [||];
    unit_ = Valu;
    trans = false;
    mkind = MLoad;
    poll = false;
    op = D_raise Exit;
  }

let half_mask n = if n >= 32 then 0xFFFFFFFF else if n <= 0 then 0 else (1 lsl n) - 1

let create (prog : program) ~wid ~nregs ~nlanes ~flat_base ~view ~simd =
  {
    wid;
    nlanes;
    flat_base;
    view;
    regs = Array.make (max nregs 1 * 64) 0;
    ready_at = Array.make (max nregs 1) 0;
    prog;
    pc = 0;
    mlo = half_mask nlanes;
    mhi = half_mask (nlanes - 32);
    mstack = Array.make prog.stack_words 0;
    sp = 0;
    cur = no_entry;
    lines = Array.make nlanes 0;
    nlines = 0;
    state = Running;
    simd;
    last_issue = 0;
    retire_accounted = false;
    barrier_site = -1;
  }

(* ------------------------------------------------------------------ *)
(* Registers and masks                                                 *)
(* ------------------------------------------------------------------ *)

let get_reg t r lane = t.regs.((r * 64) + lane)
let set_reg t r lane v = t.regs.((r * 64) + lane) <- v

let[@inline] rd regs o l = if o.row >= 0 then regs.(o.row + l) else o.imm

let[@inline] on lo hi l =
  if l < 32 then (lo lsr l) land 1 <> 0 else (hi lsr (l - 32)) land 1 <> 0

let lane_active t lane = on t.mlo t.mhi lane

let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) land 0xFFFFFFFF) lsr 24

(** Active lane count (for power/event accounting). *)
let active_lanes t = popcount32 t.mlo + popcount32 t.mhi

(* ------------------------------------------------------------------ *)
(* Control-flow advancement                                            *)
(* ------------------------------------------------------------------ *)

type peek_result =
  | P_inst  (** {!field-cur} is ready to be considered for issue *)
  | P_stall  (** waiting on a register for control flow *)
  | P_barrier_arrived  (** wave just reached a barrier *)
  | P_waiting  (** parked at a barrier *)
  | P_done

(* Mask bits of the active lanes [base .. base+31] whose value of [c] is
   nonzero. *)
let cond_half t c ~base half =
  let bits = ref 0 in
  for l = base to min (base + 32) t.nlanes - 1 do
    if (half lsr (l - base)) land 1 <> 0 && rd t.regs c l <> 0 then
      bits := !bits lor (1 lsl (l - base))
  done;
  !bits

let[@inline] ready t ~now r = r < 0 || t.ready_at.(r) <= now

let rec advance t ~now ~on_branch fuel =
  if fuel <= 0 then P_stall
  else
    let fuel = fuel - 1 in
    match t.prog.code.(t.pc) with
    | C_issue e ->
        if t.cur != e then t.cur <- e;
        P_inst
    | C_barrier sid ->
        t.pc <- t.pc + 1;
        t.state <- At_barrier;
        t.barrier_site <- sid;
        P_barrier_arrived
    | C_step ->
        t.pc <- t.pc + 1;
        advance t ~now ~on_branch fuel
    | C_goto target ->
        t.pc <- target;
        advance t ~now ~on_branch fuel
    | C_if { cond; creg; else_pc; join_pc } ->
        if not (ready t ~now creg) then P_stall
        else begin
          on_branch ();
          let slo = t.mlo and shi = t.mhi in
          let tlo = cond_half t cond ~base:0 slo
          and thi = cond_half t cond ~base:32 shi in
          let elo = slo land lnot tlo and ehi = shi land lnot thi in
          let taken = tlo lor thi <> 0 and other = elo lor ehi <> 0 in
          if taken || other then begin
            let s = t.sp in
            t.mstack.(s) <- slo;
            t.mstack.(s + 1) <- shi;
            t.mstack.(s + 2) <- elo;
            t.mstack.(s + 3) <- ehi;
            t.sp <- s + 4
          end;
          if taken then begin
            t.mlo <- tlo;
            t.mhi <- thi;
            t.pc <- t.pc + 1
          end
          else if other then begin
            t.mlo <- elo;
            t.mhi <- ehi;
            t.pc <- else_pc
          end
          else t.pc <- join_pc;
          advance t ~now ~on_branch fuel
        end
    | C_else join_pc ->
        let s = t.sp in
        let elo = t.mstack.(s - 2) and ehi = t.mstack.(s - 1) in
        if elo lor ehi <> 0 then begin
          t.mlo <- elo;
          t.mhi <- ehi;
          t.pc <- t.pc + 1
        end
        else begin
          t.mlo <- t.mstack.(s - 4);
          t.mhi <- t.mstack.(s - 3);
          t.sp <- s - 4;
          t.pc <- join_pc
        end;
        advance t ~now ~on_branch fuel
    | C_restore ->
        let s = t.sp - 4 in
        t.mlo <- t.mstack.(s);
        t.mhi <- t.mstack.(s + 1);
        t.sp <- s;
        t.pc <- t.pc + 1;
        advance t ~now ~on_branch fuel
    | C_loop ->
        on_branch ();
        let s = t.sp in
        t.mstack.(s) <- t.mlo;
        t.mstack.(s + 1) <- t.mhi;
        t.sp <- s + 2;
        t.pc <- t.pc + 1;
        advance t ~now ~on_branch fuel
    | C_test { cond; creg; exit_pc } ->
        if not (ready t ~now creg) then P_stall
        else begin
          on_branch ();
          let lo = cond_half t cond ~base:0 t.mlo
          and hi = cond_half t cond ~base:32 t.mhi in
          if lo lor hi = 0 then begin
            let s = t.sp - 2 in
            t.mlo <- t.mstack.(s);
            t.mhi <- t.mstack.(s + 1);
            t.sp <- s;
            t.pc <- exit_pc
          end
          else begin
            t.mlo <- lo;
            t.mhi <- hi;
            t.pc <- t.pc + 1
          end;
          advance t ~now ~on_branch fuel
        end
    | C_exit ->
        t.state <- Retired;
        P_done

(** Advance through control flow until an instruction, a stall, a barrier
    or the end of the kernel is reached. [on_branch] is called for every
    control-flow decision (used for counter accounting). [fuel] bounds the
    number of control operations handled in one call, so a degenerate
    control-only loop (e.g. an empty-body spin) yields to the scheduler
    and eventually trips the watchdog instead of livelocking the
    simulator. *)
let peek ?(fuel = 256) t ~now ~on_branch =
  match t.state with
  | Retired -> P_done
  | At_barrier -> P_waiting
  | Running -> advance t ~now ~on_branch fuel

(** Step past the current instruction after issue. *)
let consume t = t.pc <- t.pc + 1

(** Release from a barrier. *)
let release_barrier t = if t.state = At_barrier then t.state <- Running

(* ------------------------------------------------------------------ *)
(* Functional execution                                                *)
(* ------------------------------------------------------------------ *)

(** Memory interface a wave executes against; provided per work-group. *)
type mem_ops = {
  mload : space -> int -> int;
  mstore : space -> int -> int -> unit;
  matomic : atomic_op -> space -> int -> int -> int;
  mcas : space -> int -> int -> int -> int;
  observe : (t -> mem_kind -> space -> int -> int -> int -> unit) option;
      (** per-lane observer (a probe's [mem]), called {e before} each
          access is performed; [None] when no probe watches memory *)
}

let special_eval (view : Geom.group_view) ~flat = function
  | Global_id d -> Geom.global_id_of_flat view ~flat d
  | Local_id d -> Geom.local_id_of_flat view ~flat d
  | Group_id d -> view.gcoord.(d)
  | Global_size d -> view.nd.global.(d)
  | Local_size d -> view.nd.local.(d)
  | Num_groups d -> Geom.num_groups view.nd d
  | Lds_base _ -> assert false (* resolved by [decode] *)

(* Insert the line of [addr] into the ascending, duplicate-free
   [t.lines]. Lanes usually address ascending lines, so the scan from the
   top stops at once. *)
let add_line t addr =
  let lb = t.prog.line_bytes in
  if lb > 0 then begin
    let x = addr - (addr mod lb) in
    let n = t.nlines in
    let i = ref (n - 1) in
    while !i >= 0 && t.lines.(!i) > x do decr i done;
    if !i < 0 || t.lines.(!i) <> x then begin
      Array.blit t.lines (!i + 1) t.lines (!i + 2) (n - !i - 1);
      t.lines.(!i + 1) <- x;
      t.nlines <- n + 1
    end
  end

let[@inline] gathers sp = match sp with Global -> true | Local -> false

let swizzle_src_lane kind lane =
  match kind with
  | Dup_even -> lane land lnot 1
  | Dup_odd -> lane lor 1
  | Xor_mask m -> lane lxor m
  | Bcast l -> l

(** Execute [e] functionally for all active lanes of [t]. Returns the
    number of active lanes for a memory access (whose distinct global
    cache lines are left in [t.lines]), 1 for a [Trap] that fired on
    some active lane, and 0 otherwise. Raises {!Memsys.Fault} on wild
    memory accesses. *)
let exec t (e : entry) ~(mem : mem_ops) : int =
  let regs = t.regs and n = t.nlanes and lo = t.mlo and hi = t.mhi in
  let d = e.drow in
  match e.op with
  | D_bin (f, a, b) ->
      for l = 0 to n - 1 do
        if on lo hi l then regs.(d + l) <- f (rd regs a l) (rd regs b l)
      done;
      0
  | D_un (f, a) ->
      for l = 0 to n - 1 do
        if on lo hi l then regs.(d + l) <- f (rd regs a l)
      done;
      0
  | D_select (c, x, y) ->
      for l = 0 to n - 1 do
        if on lo hi l then
          regs.(d + l) <- (if rd regs c l <> 0 then rd regs x l else rd regs y l)
      done;
      0
  | D_mad (a, b, c) ->
      for l = 0 to n - 1 do
        if on lo hi l then
          regs.(d + l) <- F32.norm ((rd regs a l * rd regs b l) + rd regs c l)
      done;
      0
  | D_fma (a, b, c) ->
      for l = 0 to n - 1 do
        if on lo hi l then
          regs.(d + l) <-
            off (Float.fma (tof (rd regs a l)) (tof (rd regs b l)) (tof (rd regs c l)))
      done;
      0
  | D_special s ->
      for l = 0 to n - 1 do
        if on lo hi l then
          regs.(d + l) <- special_eval t.view ~flat:(t.flat_base + l) s
      done;
      0
  | D_load (sp, a) ->
      t.nlines <- 0;
      let lanes = ref 0 in
      for l = 0 to n - 1 do
        if on lo hi l then begin
          let x = rd regs a l in
          incr lanes;
          (match mem.observe with Some f -> f t MLoad sp x l 0 | None -> ());
          regs.(d + l) <- mem.mload sp x;
          if gathers sp then add_line t x
        end
      done;
      !lanes
  | D_store (sp, a, v) ->
      t.nlines <- 0;
      let lanes = ref 0 in
      for l = 0 to n - 1 do
        if on lo hi l then begin
          let x = rd regs a l in
          incr lanes;
          let sv = rd regs v l in
          (match mem.observe with Some f -> f t MStore sp x l sv | None -> ());
          mem.mstore sp x sv;
          if gathers sp then add_line t x
        end
      done;
      !lanes
  | D_atomic (op, sp, a, v) ->
      t.nlines <- 0;
      let lanes = ref 0 in
      let writes = if e.poll then 0 else 1 in
      for l = 0 to n - 1 do
        if on lo hi l then begin
          let x = rd regs a l in
          incr lanes;
          (match mem.observe with Some f -> f t MAtomic sp x l writes | None -> ());
          regs.(d + l) <- mem.matomic op sp x (rd regs v l);
          if gathers sp then add_line t x
        end
      done;
      !lanes
  | D_cas (sp, a, ex, nv) ->
      t.nlines <- 0;
      let lanes = ref 0 in
      for l = 0 to n - 1 do
        if on lo hi l then begin
          let x = rd regs a l in
          incr lanes;
          (match mem.observe with Some f -> f t MAtomic sp x l 1 | None -> ());
          regs.(d + l) <- mem.mcas sp x (rd regs ex l) (rd regs nv l);
          if gathers sp then add_line t x
        end
      done;
      !lanes
  | D_swizzle (kind, a) ->
      (* snapshot sources first: swizzle reads inactive lanes too, and the
         destination may alias the source *)
      let snap = t.prog.snapshot in
      for l = 0 to n - 1 do
        snap.(l) <- rd regs a l
      done;
      for l = 0 to n - 1 do
        if on lo hi l then begin
          let s = swizzle_src_lane kind l in
          let s = if s < n then s else l in
          regs.(d + l) <- snap.(s)
        end
      done;
      0
  | D_trap v ->
      let fired = ref 0 in
      for l = 0 to n - 1 do
        if on lo hi l && rd regs v l <> 0 then fired := 1
      done;
      !fired
  | D_raise ex -> raise ex
