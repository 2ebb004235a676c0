(** SplitMix64 pseudo-random generator (Steele, Lea, Flood 2014).

    A standalone generator.  {!Xoshiro} seeds its state with the same
    rounds, computed in its own module so the seeding stays unboxed;
    golden-output tests pin both. *)

type t

(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)
val create : int64 -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [next t] advances the state and returns the next 64-bit output. *)
val next : t -> int64

(** [next_int63 t] is [next t] truncated to OCaml's non-negative [int]
    range, i.e. uniform on [0, 2^62). *)
val next_int63 : t -> int
