(** Small-n model of the at-most-once retry/dedup/fence protocol, for
    exhaustive model checking and schedule fuzzing.

    One client request (one {e rid}) is delivered several times — the
    original plus network duplicates, each delivery a concurrent handler
    process — and the granted name must be returned by {e exactly one}
    of them.  The model strips {!Dedup} and the transport down to their
    synchronisation skeleton over TAS-able aux registers:

    - {b dedup admission} is a per-rid grant lock: the handler that TASes
      it first is the fresh execution, every loser is a duplicate and
      returns nothing (the replayed cached reply carries no new grant);
    - {b commit} is a settle lock taken after an observable hold window
      (grant written to the reply cache), the analogue of {!Dedup.record};
    - {b eviction} of the rid's dedup entry is fenced: the evictor TASes
      the {e same} settle lock — winning proves no handler committed and
      forecloses every in-flight duplicate from committing later — and
      only then re-arms the rid under a bumped epoch, where a late
      duplicate may execute as fresh.

    The checked property is global uniqueness of the returned name
    across both epochs; processes return names guarded by the aux locks
    rather than namespace TAS, so its targets are judged in the
    monitor's [Returns] mode: the return is the grant.

    {!instance_evict} is the seeded mutant: the evictor merely {e reads}
    the settle lock — evicting the dedup entry while a duplicate still
    sits in its hold window — so the old-epoch commit and the new-epoch
    re-execution both grant name 0.  Clean under fair round-robin (the
    mutant parks long enough for the original to commit first); the bug
    needs a genuine preemption inside the hold window, which is the
    fuzzer's job to find. *)

val instance : n:int -> seed:int64 -> Renaming_sched.Executor.instance
(** [n >= 2]: process 0 handles the original delivery, process 1 is the
    evictor (evict + handle a late duplicate at the new epoch), processes
    2.. are in-flight duplicate handlers. *)

val instance_evict : n:int -> seed:int64 -> Renaming_sched.Executor.instance
(** The unfenced-eviction mutant; must violate uniqueness under an
    adversarial schedule and stay clean under fair round-robin. *)
