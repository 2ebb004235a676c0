(** xoshiro256** generator (Blackman, Vigna 2018).

    The workhorse generator of the repository: fast, with a 256-bit
    state.  Seeded from a single [int64] through SplitMix64 as the
    authors recommend; independent streams are derived by key
    ({!derive}, {!derive_at}), which is how {!Stream} forks them.

    The state is stored unboxed (32 bytes), so stepping it never
    allocates: {!next_int63}, [Sample.uniform_int] and
    [Sample.bernoulli] run allocation-free.  The build inlines nothing
    across modules, so an [int64] or [float] result is boxed whenever it
    leaves its module: {!next} allocates its [int64], as
    [Sample.float_unit] does its [float].  Hot paths should draw with
    {!next_int63}.

    A generator is a 32-byte buffer with its state at offset 0.  Many
    states can also share one larger buffer, {!state_bytes} bytes
    apiece: {!derive_at} seeds a state at a byte offset and
    {!next_int63_at} steps it there, so a table of [k] generators is
    one [Bytes.t] of [32 * k] bytes rather than [k] heap blocks.  The
    seeding and the step are written once here, over a buffer and an
    offset; the single-generator functions run them at offset 0.  Each
    call at an offset checks once that the 32 bytes lie inside the
    buffer and raises [Invalid_argument] otherwise.  The one other copy
    of the step is [Renaming_concurrent.Mc_run]'s draw, which a step
    loop that calls no other module needs, and whose tests hold it to
    [Sample.uniform_int] on the same state. *)

type t = private Bytes.t
(** The state, at offset 0 of a buffer of exactly {!state_bytes}
    bytes.  Coercing it to [Bytes.t] gives a buffer the [_at] functions
    accept at offset 0. *)

val state_bytes : int
(** Bytes per state: 32. *)

(** [create seed] seeds the 256-bit state from [seed] via SplitMix64. *)
val create : int64 -> t

(** [derive base key] is [create s], where [s] is one SplitMix64 output
    from the state [base lxor (key * 0x9E3779B97F4A7C15)]; mixing the
    key through a round decorrelates nearby keys.  It is the seeding
    behind {!Stream.fork} and {!Stream.fork_named}. *)
val derive : int64 -> int64 -> t

(** [derive_at base ~key buf off] writes the state of
    [derive base (Int64.of_int key)] into [buf] at byte offset [off],
    allocating nothing: the key stays an immediate [int].  It is the
    seeding behind {!Stream.fork_into}.  Raises [Invalid_argument] when
    [\[off, off + 32)] is not inside [buf]. *)
val derive_at : int64 -> key:int -> Bytes.t -> int -> unit

(** [next t] returns the next 64-bit output. *)
val next : t -> int64

(** [next_int63 t] is [next t] shifted right by 2: uniform on [0, 2^62)
    and returned as an immediate [int]. *)
val next_int63 : t -> int

(* lint: allow unused-export — test hook: a state fork_into seeded steps as fork's does *)
val next_int63_at : Bytes.t -> int -> int
(** [next_int63_at buf off] steps the state at byte offset [off] of
    [buf] and returns its {!next_int63} output; [next_int63 t] is
    [next_int63_at (t :> Bytes.t) 0].  Raises [Invalid_argument] when
    [\[off, off + 32)] is not inside [buf]. *)
