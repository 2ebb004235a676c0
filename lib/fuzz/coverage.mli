(** Interleaving-coverage signatures from concrete memory accesses.

    Hooks into {!Renaming_sched.Memory.set_access_logger} and distils an
    execution into a set of *conflict edges*: ordered pairs of accesses
    to the same cell by different processes where at least one access is
    a write — the access pairs whose relative order distinguishes one
    interleaving from another (the same pairs the happens-before relation
    and the independence oracle of [Renaming_analysis] are built on).

    Each edge is identified by a self-contained FNV-1a 64-bit hash of
    (region, cell index, previous operation tag, previous write flag,
    current operation tag, current write flag).  Process identities are
    deliberately excluded so pid permutations do not masquerade as new
    coverage.  A schedule that produces an edge no earlier execution
    produced has exercised a new conflict shape — that is the signal the
    fuzzing corpus ({!Corpus}) keeps prefixes for. *)

type t

val create : unit -> t

val attach : t -> Renaming_sched.Memory.t -> unit
(** Install this collector as the memory's access logger (replacing any
    other logger — the memory has a single logger slot). *)

val detach : Renaming_sched.Memory.t -> unit
(** Remove whatever access logger is installed. *)

val edges : t -> int64 list
(** The distinct edge hashes in first-seen order. *)
