(** SplitMix64 pseudo-random generator (Steele, Lea, Flood 2014).

    A standalone generator.  {!Xoshiro} seeds its state with the same
    rounds, computed in its own module so the seeding stays unboxed;
    golden-output tests pin both. *)

type t

(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)
(* lint: allow unused-export — unit-tested, no caller yet: the SplitMix64 reference generator *)
val create : int64 -> t

(** [next t] advances the state and returns the next 64-bit output. *)
(* lint: allow unused-export — unit-tested, no caller yet: the SplitMix64 reference generator *)
val next : t -> int64
