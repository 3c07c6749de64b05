(** The device's global memory image: 32-bit words in fixed-size pages
    allocated on first write. A page that was never written reads as
    zero, so creating a device costs nothing proportional to its memory
    size. Callers check bounds and alignment ({!Memsys} faults wild
    accesses at {!size}); addresses here must be word-aligned and in
    range. *)

type t

val create : int -> t
(** An all-zero image of the given size in bytes. *)

val size : t -> int

val get32 : t -> int -> int
(** The sign-extended 32-bit word at a byte address. *)

val set32 : t -> int -> int -> unit
(** Store the low 32 bits of a value at a byte address. *)
