(** Triple modular redundancy (TMR) — an extension beyond the paper:
    triple each logical work-item and majority-vote every exiting store,
    so a single faulty copy is {e corrected} in place instead of
    aborting for recovery. A three-way disagreement still traps.

    Restriction: the voting exchange relies on wavefront lockstep, so a
    tripled work-group must fit one wavefront ([3 * local_items <= 64]);
    see the module implementation notes. *)

val comm_lds_name : string

val transform : local_items:int -> Gpu_ir.Types.kernel -> Gpu_ir.Types.kernel
(** [transform ~local_items k]: [local_items] is the original (logical)
    flat work-group size. Launch the result with {!map_ndrange}.
    @raise Intra_group.Unsupported when [3 * local_items > 64] or the kernel uses
    global atomics. *)

val map_ndrange : Gpu_sim.Geom.ndrange -> Gpu_sim.Geom.ndrange
(** Host-side NDRange adaptation: dimension 0 triples. *)
