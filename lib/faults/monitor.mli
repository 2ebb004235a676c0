(** Online safety monitor: checks every executor event against the
    centralized renaming spec ({!Renaming_refine.Spec}) and the
    executor's own discipline, and fails fast with a trace excerpt.

    Wire {!hook} into {!Renaming_sched.Executor.run}'s (or
    {!Renaming_sched.Directed.run}'s) [on_event], then classify the
    outcome with {!judge}.

    The spec is the one oracle for the paper's safety property — no two
    processes hold the same name, every name lies in the namespace, and
    a process claims only a name it won.  Each event is adapted to
    {!Renaming_refine.Obs_event}s under the {!mode} the run's target
    declares ({!Target.t}):

    - {!Tas}: the paper algorithms.  A name is granted by winning its
      namespace TAS register, released by [Release_name], asserted by a
      successful [Owned_name] probe or a [Some] return value; a return
      of a name the process does not hold is an unbacked claim.
      Faulted operations never touch memory, so they are stutters.
    - {!Returns}: the service protocol models ([Handoff],
      [Shard_handoff], [Net_dedup] and their mutants).  Names live in
      model-internal words/aux registers, so the only observable grant
      is the returned value; everything else is a stutter.
    - {!Announce}: models that narrate their own observable events by
      writing {!Renaming_refine.Obs_event.encode}d values to word 0
      ({!Renaming_refine.Grant_model}); executor crashes and returns are
      stutters there.

    The executor-discipline checks are the monitor's own: an unknown
    pid; a step, return or second crash by a crashed process; recovery
    of a live process; activity after returning; and, when {!judge}
    classifies a finished run, the report's per-process ledger, tick
    count and final assignment against the monitor's event counts.

    A violation raises {!Violation} carrying a stable [kind] tag (used
    by the model checker and shrinker to decide whether two failures are
    "the same") and a [message] embedding the last few events — the
    failure is caught at the offending step, not discovered in a
    post-hoc report diff. *)

type violation = {
  kind : string;
      (** stable machine-readable tag: ["refine:<reason>"] for a spec
          rejection (e.g. ["refine:name-held"],
          ["refine:claim-unbacked"]), else a discipline check such as
          ["step-after-crash"] or ["ledger-mismatch"] *)
  message : string;  (** human-readable description plus trace excerpt *)
}

exception Violation of violation

type mode = Tas | Returns | Announce

type t

val create : ?obs:Renaming_obs.Obs.t -> mode:mode -> Renaming_sched.Executor.instance -> t
(** One monitor per run of the instance; it owns the run's
    {!Renaming_refine.Check.t}, sized by the instance's namespace, and
    checks pids against its process count.  With [obs], the checker
    bumps the shared [refine/events], [refine/stutters] and
    [refine/violations] counters. *)

val hook : t -> Renaming_sched.Executor.event -> unit
(** Feed one event; raises {!Violation} on the first broken invariant. *)

type verdict =
  | Passed of Renaming_sched.Report.t
  | Livelocked of Renaming_sched.Report.t  (** cut off by the livelock guard *)
  | Failed of violation

val judge : t -> Renaming_sched.Directed.outcome -> verdict
(** The outcome-to-kind mapping every monitored runner shares: a raised
    {!Violation} fails with its kind, any other exception with
    ["exception:<slot>"]; a livelocked report is {!Livelocked};
    otherwise the post-run consistency checks decide. *)
