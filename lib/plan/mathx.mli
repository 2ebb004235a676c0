(** Integer logarithm helpers shared by the parameter schedules.

    The paper's quantities ([log n], [log log n], [log log log n]) are
    real-valued; where an algorithm needs an integer count we use the
    ceiling, which only strengthens the w.h.p. guarantees. *)

val log2_ceil : int -> int
(** [log2_ceil n] for [n ≥ 1]; [log2_ceil 1 = 0]. *)

val log2f : float -> float

val loglog2_ceil : int -> int
(** [⌈log₂ log₂ n⌉], at least 1 (defined for [n ≥ 2]). *)

val logloglog2_ceil : int -> int
(** [⌈log₂ log₂ log₂ n⌉], at least 1. *)

val pow_int : int -> int -> int
(** [pow_int b e] for [e ≥ 0]; overflow is the caller's concern. *)
