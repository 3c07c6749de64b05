(** Per-site profile accumulators.

    One slot per instruction site ({!Gpu_ir.Site}), charged through the
    device's profile probe ([Gpu_sim.Probe.of_collector]).

    Two classes of field:

    - {b cycle-exact} fields ([valu_busy], [salu_busy], [mem_unit_busy],
      [lds_busy], [write_stalled], [spin_iterations], and the cache
      hit/miss counts) are charged at the same program points as the
      whole-run {!Gpu_sim.Counters} fields of the same name, so their
      per-site sums reconcile exactly with the run totals — the property
      the test suite locks;
    - {b observation} fields ([stall_*]) count scheduler-scan sightings
      of a wave that could not issue, like the trace sink's stall
      events; they depend on how often the skip-ahead scheduler rescans
      and are diagnostic, not cycle-exact.

    A collector accumulates across launches (multi-pass benchmarks reuse
    one collector), which is sound because every pass runs the same
    kernel and therefore the same site numbering. *)

type t = {
  nsites : int;
  issues : int array;  (** instructions issued at this site *)
  valu_busy : int array;
  salu_busy : int array;
  mem_unit_busy : int array;
  lds_busy : int array;
  write_stalled : int array;
  spin_iterations : int array;
  stall_scoreboard : int array;
  stall_unit_busy : int array;
  stall_write_backlog : int array;
  stall_barrier : int array;
  l1_hits : int array;
  l1_misses : int array;
  l2_hits : int array;
  l2_misses : int array;
}

let create ~nsites =
  let z () = Array.make (max nsites 1) 0 in
  {
    nsites;
    issues = z ();
    valu_busy = z ();
    salu_busy = z ();
    mem_unit_busy = z ();
    lds_busy = z ();
    write_stalled = z ();
    spin_iterations = z ();
    stall_scoreboard = z ();
    stall_unit_busy = z ();
    stall_write_backlog = z ();
    stall_barrier = z ();
    l1_hits = z ();
    l1_misses = z ();
    l2_hits = z ();
    l2_misses = z ();
  }

let sum a = Array.fold_left ( + ) 0 a

(** Busy cycles charged to site [i] across all units. *)
let busy t i =
  t.valu_busy.(i) + t.salu_busy.(i) + t.mem_unit_busy.(i) + t.lds_busy.(i)

(** Total busy cycles charged across all sites. *)
let total_busy t =
  sum t.valu_busy + sum t.salu_busy + sum t.mem_unit_busy + sum t.lds_busy

(** Stall observations recorded at site [i], all causes. *)
let stalls t i =
  t.stall_scoreboard.(i) + t.stall_unit_busy.(i) + t.stall_write_backlog.(i)
  + t.stall_barrier.(i)
