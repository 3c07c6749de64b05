(** Intra-Group RMT transform (paper Sections 6 and 8).

    The host doubles the dimension-0 work-group size; this pass rewrites
    the kernel so that physical work-items [2k] and [2k+1] form a
    producer/consumer pair computing logical work-item [k] in adjacent
    SIMD lanes of the same wavefront. Every store leaving the sphere of
    replication is guarded by an output comparison; on mismatch the
    consumer traps. *)

type comm =
  | Comm_lds   (** communicate via an LDS buffer (portable OpenCL) *)
  | Comm_fast  (** communicate through the VRF with [swizzle] (Sec. 8) *)
  | Comm_none  (** no communication/comparison — the Figure 4 ablation *)

type opts = {
  include_lds : bool;  (** true = Intra-Group+LDS, false = Intra-Group−LDS *)
  comm : comm;
}

val plus_lds : opts
val minus_lds : opts

val comm_lds_name : string
(** Name of the LDS communication buffer the transform allocates. *)

exception Unsupported of string
(** Raised for kernels a transform cannot protect (global atomics,
    pre-existing traps — paper Sec. 6.2 leaves these to future work).
    The Inter-Group and TMR passes raise this same exception. *)

val reject_unsupported : Gpu_ir.Types.kernel -> unit
(** @raise Unsupported when the kernel uses unsupported features. *)

val transform : opts -> local_items:int -> Gpu_ir.Types.kernel -> Gpu_ir.Types.kernel
(** [transform opts ~local_items k] rewrites [k]; [local_items] is the
    {e original} flat work-group size (sizes the communication buffer).
    Launch the result with {!map_ndrange}. *)

val map_ndrange : Gpu_sim.Geom.ndrange -> Gpu_sim.Geom.ndrange
(** Host-side NDRange adaptation: dimension-0 local and global double. *)
