(** Fixed-width machine words for the τ-register counting device.

    The counting device of Berenbrink et al. (§II-C) manipulates a
    register of [2·log n] TAS bits with [popcnt], [xor], [bt] and shifts,
    and its discard procedure relies on left shifts *dropping* bits that
    cross the register boundary.  This module provides exactly that
    semantics for widths 1–62, on top of OCaml's native [int].

    Bit 1 is the lowest-order bit, matching the paper's
    [bt(util_reg_i, 1)] convention; in code we index bits from 0. *)

type t = int
(** A word value; only the low [width] bits are meaningful.  All
    functions take the width explicitly and keep results masked. *)

val max_width : int
(** Largest supported width (62). *)

(* lint: allow unused-export — test hook: the words the shift properties are stated over *)
val mask : width:int -> t
(** [mask ~width] has the low [width] bits set. *)

val popcount : t -> int
(** Number of set bits ([popcnt] in the paper's pseudocode). *)

val test_bit : t -> int -> bool
(** [test_bit w i] is the value of bit [i] (0-based); the paper's
    [bt(w, i+1)]. *)

val set_bit : t -> int -> t

val shift_left : width:int -> t -> int -> t
(** [shift_left ~width w k] shifts left by [k], dropping bits that leave
    the [width]-bit register — the lossy hardware shift the discard
    procedure depends on. *)

val shift_right : width:int -> t -> int -> t
(** Logical right shift (bits dropped at the low end). *)

val logxor : t -> t -> t
val logor : t -> t -> t
val logand : t -> t -> t

val keep_lowest : t -> int -> t
(** [keep_lowest w k] clears all but the [k] lowest-indexed set bits of
    [w].  This is the reference semantics of the device's discard step. *)

val pp : width:int -> Format.formatter -> t -> unit
(** Prints the register as a bit string, highest bit first. *)
