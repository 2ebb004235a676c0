(** The lease-handoff protocol, reduced to the shared-memory substrate
    for exhaustive checking.

    {!Lease} fences stale clients with epoch counters maintained inside
    the (sequential) service; its correctness argument is the classic
    fencing-token one.  This module re-expresses one slot's
    grant/reclaim/handoff cycle as racing {!Renaming_sched.Program}s
    over raw TAS registers, so mcheck can verify the argument over
    {e all} schedules (and fuzz can hunt it at larger n):

    - a shared word register holds the slot {e epoch} [e];
    - aux register [2e] is the epoch-[e] {e grant} lock, aux [2e+1] the
      epoch-[e] {e settle} lock;
    - a {e claimant} reads the epoch, TASes the grant lock, and — after
      a hold window — commits by TASing the settle lock; only a
      committed claimant returns the name (0);
    - the {e reclaimer} revokes epoch [e] by TASing the same settle
      lock and, on success, advances the epoch register.

    Safety (the no-double-grant property the auditor checks in the
    service): at most one process ever returns the name, because
    committing at epoch [e] and opening epoch [e+1] race for the one
    settle-lock TAS — a claimant that lost it is exactly a fenced stale
    client.  All namespace traffic goes through {!Renaming_sched.Retry},
    so the protocol also survives transient-fault injection. *)

val instance : n:int -> seed:int64 -> Renaming_sched.Executor.instance
(** [n >= 2] processes: the holder, the reclaimer, and [n - 2]
    claimants (two tries each).  Deterministic — [seed] is unused but
    kept for roster-builder uniformity. *)

val instance_stale_write : n:int -> seed:int64 -> Renaming_sched.Executor.instance
(** Same shape with the seeded mutant in place of the holder: it
    validates by re-reading the epoch register instead of taking the
    settle lock, so a schedule where it validates before the reclaimer
    advances the epoch yields two committed holders; fuzz must find it. *)
