(** The refinement layer's seeded-mutant self-test: a small
    grant/reclaim protocol over the plain executor whose processes
    narrate their observable events through the announce register
    (word 0, {!Obs_event.encode}), checked in the executor monitor's
    [Announce] mode ([Renaming_faults.Monitor]).

    [n - 1] clients (session [i] works name [i]) and one reclaimer
    (pid [n - 1]).  A client announces [Invoked] then [Granted],
    publishes its grant in a table word, holds through one yield, then
    races the reclaimer for the name's settle lock (an aux TAS): the
    winner of the lock is the one allowed to announce the name's fate
    ([Released] by the client, [Reclaimed] by the reclaimer), so the
    clean protocol is legal under {e every} schedule, crash pattern and
    fault injection.

    {!instance_regrant} is the spec-divergent mutant: after a
    successful reclaim the reclaimer {e also} announces a re-grant of
    the name to the original session — which never re-invoked.  No
    per-backend monitor objects (the namespace is never touched, the
    returned values are all [None], uniqueness holds: each per-monitor
    check would need bespoke code to see it), but the centralized spec
    rejects it as [refine:grant-without-invoke].  The bug needs one
    preemption: park a client between its table publish and its settle
    TAS, so the reclaimer wins the lock; fair round-robin always lets
    the client settle first, so the baseline stays clean. *)

val instance : n:int -> seed:int64 -> Renaming_sched.Executor.instance
(** Clean variant ([n >= 2]; [seed] unused — the model is
    deterministic). *)

val instance_regrant : n:int -> seed:int64 -> Renaming_sched.Executor.instance
(** The post-reclaim double-grant mutant. *)
