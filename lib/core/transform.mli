(** Facade over the RMT transforms: one variant type covering every
    kernel version the evaluation runs, with uniform host-side launch
    adaptation. *)

type variant =
  | Original
  | Intra of { include_lds : bool; comm : Intra_group.comm }
  | Inter of { comm : bool }

(** The headline flavors of the paper. *)

val intra_plus_lds : variant
val intra_minus_lds : variant
val intra_plus_lds_fast : variant
val intra_minus_lds_fast : variant
val inter_group : variant

val name : variant -> string

val apply : variant -> local_items:int -> Gpu_ir.Types.kernel -> Gpu_ir.Types.kernel
(** Transform a kernel. [local_items] is the original flat work-group
    size of the intended launch. *)

val map_ndrange : variant -> Gpu_sim.Geom.ndrange -> Gpu_sim.Geom.ndrange
(** Adapt the original NDRange for the transformed kernel. *)

(** Every kernel version the verification stack reasons about: the
    harness variants plus {!Tmr}, which no registry workload can launch
    (its tripled group must fit one wavefront). *)
type target = V of variant | Tmr

val target_name : target -> string

val apply_target : target -> local_items:int -> Gpu_ir.Types.kernel ->
  Gpu_sim.Geom.ndrange -> Gpu_ir.Types.kernel * Gpu_sim.Geom.ndrange
(** The transformed kernel and its NDRange, adapted from the original.
    @raise Intra_group.Unsupported when the pass rejects the kernel. *)

type extras = {
  ex_args : Gpu_sim.Device.arg list;  (** arguments to append *)
  reset : unit -> unit;  (** call before every launch *)
}

val make_extras : variant -> Gpu_sim.Device.t -> nd:Gpu_sim.Geom.ndrange -> extras
(** Allocate (and zero) the extra buffers for launches of [variant] over
    the {e original} NDRange. *)

val extra_args : variant -> Gpu_sim.Device.t -> nd:Gpu_sim.Geom.ndrange -> Gpu_sim.Device.arg list
(** Convenience for single-launch callers. *)
