(** The fuzzing corpus: decision prefixes that earned their keep by
    producing new interleaving coverage ({!Coverage}), plus the
    structural mutations that breed new schedules from them.

    A corpus entry is a {!Renaming_sched.Directed.choice} prefix — the
    identity of a schedule under the prefix-directed executor (the
    deterministic default policy fills in the tail).  An execution is
    admitted iff its edge set contains at least one edge *no earlier
    execution of this campaign* produced; deduplication is against all
    edges ever seen, not just admitted entries, so replaying an old
    schedule never re-qualifies it. *)

type entry = {
  en_prefix : Renaming_sched.Directed.choice list;
  en_new_edges : int;  (** edges this entry contributed when admitted *)
  en_iteration : int;  (** campaign iteration that found it *)
}

type t

val create : unit -> t

val size : t -> int
(** Number of admitted entries. *)

val seen_edges : t -> int
(** Total distinct coverage edges observed across all executions. *)

val observe :
  t -> iteration:int -> prefix:Renaming_sched.Directed.choice list -> int64 list -> int
(** [observe t ~iteration ~prefix edges] folds one execution's edge list
    into the global set and returns how many edges were new; when
    positive, [prefix] was admitted as an entry. *)

val pick : t -> Renaming_rng.Xoshiro.t -> Renaming_sched.Directed.choice list
(** A uniformly random entry's prefix ([[]] when the corpus is empty —
    mutating the empty prefix just grows fresh schedules). *)

val mutate :
  rng:Renaming_rng.Xoshiro.t ->
  n:int ->
  allow_faults:bool ->
  allow_crashes:bool ->
  Renaming_sched.Directed.choice list ->
  Renaming_sched.Directed.choice list
(** Apply 1–3 random structural edits: truncate at a random point, swap
    two adjacent choices, insert a [Step] of a random pid, insert a
    [Crash] with a matching later [Recover] (when [allow_crashes]), or
    insert a [Fault] (when [allow_faults] — only safe for targets whose
    programs route operations through the fault-aware retry
    primitives).  Mutants may be partly infeasible; the permissive
    directed executor drops infeasible choices, so every mutant still
    denotes a valid schedule. *)
