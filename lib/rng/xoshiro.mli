(** xoshiro256** generator (Blackman, Vigna 2018).

    The workhorse generator of the repository: fast, 256-bit state, and
    splittable via {!jump} into streams that are independent for all
    practical purposes.  Seeded from a single [int64] through SplitMix64 as
    the authors recommend.

    The state is stored unboxed (32 bytes), so stepping it never
    allocates: {!next_int63}, [Sample.uniform_int] and
    [Sample.bernoulli] run allocation-free.  The build inlines nothing
    across modules, so an [int64] or [float] result is boxed whenever it
    leaves its module: {!next} allocates its [int64], as
    [Sample.float_unit] does its [float].  Hot paths should draw with
    {!next_int63}. *)

type t

(** [create seed] seeds the 256-bit state from [seed] via SplitMix64. *)
val create : int64 -> t

(** [derive base key] is [create s], where [s] is one SplitMix64 output
    from the state [base lxor (key * 0x9E3779B97F4A7C15)]; mixing the
    key through a round decorrelates nearby keys.  It is the seeding
    behind {!Stream.fork} and {!Stream.fork_named}. *)
val derive : int64 -> int64 -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [next t] returns the next 64-bit output. *)
val next : t -> int64

(** [next_int63 t] is [next t] shifted right by 2: uniform on [0, 2^62)
    and returned as an immediate [int]. *)
val next_int63 : t -> int

(** [jump t] advances [t] by 2^128 steps in place; used to carve
    non-overlapping streams out of one seed. *)
val jump : t -> unit

(** [split t] returns a copy of [t] at its current position and then
    jumps [t] 2^128 steps ahead, so repeated calls yield disjoint
    streams. *)
val split : t -> t
