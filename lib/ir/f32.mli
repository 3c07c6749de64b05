(** IEEE-754 binary32 arithmetic emulated on OCaml [int] bit patterns.

    Register values throughout the simulator are 32-bit patterns stored
    sign-extended in native [int]s. Floating-point instructions
    reinterpret the pattern as binary32, compute in double precision, and
    round back to binary32 (round-to-nearest-even). CPU reference
    implementations use the same helpers so integer kernels verify
    bit-exactly. *)

val norm : int -> int
(** Normalize an [int] to a sign-extended 32-bit value. *)

val to_u : int -> int
(** Unsigned view of a 32-bit pattern, in [0, 2{^32}). *)

val of_float : float -> int
(** Bit pattern (sign-extended) of a float rounded to binary32. *)

val to_float : int -> float
(** Float value of a 32-bit pattern. *)

val round : float -> float
(** Round a double to the nearest binary32 value. *)
