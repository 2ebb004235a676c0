(** Named, reproducible streams of randomness.

    A {!t} owns a master generator derived from a single experiment seed;
    [fork] carves out per-purpose or per-process substreams whose contents
    do not depend on the order in which the other substreams are used.
    This is what makes simulation runs replayable: the stream for process
    [i] is a pure function of [(seed, i)]. *)

type t

(** [create seed] makes a master stream. *)
val create : int64 -> t

(** [fork t ~index] derives substream [index] deterministically; the same
    [(seed, index)] pair always yields the same generator regardless of
    other forks. *)
val fork : t -> index:int -> Xoshiro.t

(** [fork_into t ~index buf off] writes substream [index]'s state into
    [buf] at byte offset [off] (see {!Xoshiro.derive_at}): drawing
    there with {!Xoshiro.next_int63_at} yields the stream
    [fork t ~index] yields.  It allocates nothing, so a table of
    per-process streams is one buffer of [Xoshiro.state_bytes] bytes
    per process.  Raises [Invalid_argument] when the 32 bytes at [off]
    are not inside [buf]. *)
val fork_into : t -> index:int -> Bytes.t -> int -> unit

(** [fork_named t ~name] derives a substream keyed by a string label
    (hashed with {!hash_name}); used for experiment-level streams such
    as ["workload"] or ["adversary"]. *)
val fork_named : t -> name:string -> Xoshiro.t

(** [hash_name name] is the self-contained FNV-1a 64-bit hash behind
    {!fork_named}.  Pinned by golden-value tests: unlike
    [Hashtbl.hash], its output is part of the replayability contract
    and must never change across OCaml versions or releases. *)
val hash_name : string -> int64

(** [seed t] returns the seed the stream was built from. *)
val seed : t -> int64
