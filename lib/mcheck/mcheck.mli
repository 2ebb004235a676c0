(** Bounded model checking of renaming instances: systematic
    exploration of every adversary decision — who steps next,
    transient-fault injections, crashes, recoveries — with the online
    safety {!Renaming_faults.Monitor} checking every interleaving.

    The exploration is *stateless* in the CHESS style: a schedule is a
    {!Renaming_sched.Directed.choice} prefix, re-executed from scratch
    on a fresh deterministic instance.  Two explorers share that
    substrate:

    - {!check}: source-DPOR with wakeup trees.  After each
      completed execution, *reversible races* — pairs of dependent
      steps of different processes with no happens-before path between
      them, computed with vector clocks over the
      {!Renaming_analysis.Footprint} dependence relation
      ({!Races.dependent}) — each yield a reordering witness, inserted
      into the wakeup tree ({!Wakeup}) of the race's first decision
      point unless a sleep-set entry, an existing branch or the
      preemption budget already covers it.  Alternatives at a point are
      exactly those committed branches (plus exhaustively enumerated
      injections), so redundant interleavings of independent steps are
      never scheduled at all and no explored schedule is revisited.
      Injections are treated as dependence barriers: races are never
      detected across them.  The default tail runs under the
      [b_yield_rotate] fairness bound so retry/backoff loops in the
      handoff services terminate instead of burning the livelock guard.

    - {!enumerate}: the unpruned DFS, which branches on every enabled
      alternative at every point, bounded only by the budgets — the
      oracle the differential tests check DPOR's verdicts and schedule
      counts against.

    Both bound preemptions with the same cost model (switching
    away from a still-runnable process costs one unit of
    [b_preemptions]), so they explore the same bounded schedule
    universe.  Independence is judged statically from the audited
    {!Renaming_analysis.Footprint} table, machine-checked against the
    concrete semantics of [Memory.apply] by [renaming analyze]
    ({!Renaming_analysis.Commute}), including agreement with
    {!Races.dependent}.  Under a *finite* preemption bound, DPOR is
    heuristic: a race whose reversal needs more preemptions than
    remain is skipped (counted in [s_budget_skipped]), mirroring the
    enumerator's budget gating.  With generous bounds it is
    exhaustive up to Mazurkiewicz-trace equivalence, which is sound for
    the monitor's trace-invariant verdicts.

    Each violation is recorded with its condensed rendering
    ({!Renaming_sched.Directed.condensed}) and (by default) handed to
    {!Renaming_faults.Shrink} for 1-minimal counterexample reduction. *)

type bounds = {
  b_preemptions : int;  (** preemption budget per schedule *)
  b_crashes : int;  (** crash injections per schedule *)
  b_recoveries : int;  (** recovery injections per schedule *)
  b_faults : int;  (** transient-fault injections per schedule *)
  b_max_ticks : int;  (** livelock guard per execution *)
  b_max_schedules : int;  (** hard cap on executions; sets [s_capped] *)
  b_yield_rotate : int option;
      (** fairness bound of DPOR's default tail (the enumerator runs the
          plain tail); see {!Renaming_sched.Directed.run} *)
}

val default_bounds : bounds
(** [{ b_preemptions = 2; b_crashes = 0; b_recoveries = 0; b_faults = 0;
      b_max_ticks = 50_000; b_max_schedules = 200_000;
      b_yield_rotate = Some 32 }] *)

type case = {
  v_kind : string;  (** {!Renaming_faults.Monitor.violation} kind (or ["livelock"] / ["exception:..."]) *)
  v_message : string;
  v_prefix : Renaming_sched.Directed.choice list;
      (** the decisions of the failing execution, up to the failure *)
  v_condensed : string;
      (** dejafu-style condensed rendering of [v_prefix], e.g.
          [S0x2--P1--S2] *)
  v_shrunk : Renaming_faults.Shrink.result option;
      (** 1-minimal reduction (present unless shrinking was disabled or
          the failure stopped reproducing) *)
}

type stats = {
  s_target : string;
  s_engine : string;  (** ["dpor"] ({!check}) or ["unpruned"] ({!enumerate}) *)
  s_schedules : int;  (** distinct complete executions checked *)
  s_points : int;  (** decision points expanded *)
  s_races : int;  (** reversible races detected (DPOR) *)
  s_wakeups : int;  (** reordering witnesses committed to wakeup trees (DPOR) *)
  s_pruned : int;
      (** alternatives DPOR skipped as redundant: sleep-set hits and
          witnesses already covered by a pending branch *)
  s_budget_skipped : int;
      (** witnesses or runs discarded by the preemption budget or an
          infeasible wakeup descent (DPOR) *)
  s_livelocks : int;  (** executions cut off by [b_max_ticks] *)
  s_violations : int;  (** total failing executions *)
  s_capped : bool;  (** exploration stopped at [b_max_schedules] *)
  s_baseline : int option;
      (** frozen pre-DPOR schedule count for this target, when known
          (from the roster) — the denominator of the reduction ratio *)
  s_cases : case list;  (** first few violations, in discovery order *)
}

val check :
  ?bounds:bounds ->
  ?shrink:bool ->
  ?max_cases:int ->
  ?baseline:int ->
  ?on_schedule:(Renaming_sched.Directed.choice array -> unit) ->
  ?obs:Renaming_obs.Obs.t ->
  seed:int64 ->
  Renaming_faults.Target.t ->
  stats
(** Exhaustively explores the target's instance at [seed] within
    [bounds] with source-DPOR (every execution rebuilds it, so the
    build must be deterministic), judged in the target's monitor mode.
    [shrink] (default [true]): minimise each
    recorded violation.  [max_cases] (default [8]) caps the number of
    *recorded* cases ([s_violations] still counts all of them).
    [baseline] is stored in [s_baseline] for reduction-ratio reporting.
    [on_schedule] is invoked with the full decision sequence of every
    counted execution — a debugging/testing hook (e.g. asserting that no
    schedule is ever revisited).  With [obs], the final stats are
    accumulated onto the [mcheck/targets], [mcheck/schedules],
    [mcheck/points], [mcheck/races], [mcheck/wakeups], [mcheck/pruned],
    [mcheck/violations] and [mcheck/livelocks] counters, and every
    execution's monitor bumps the [refine/*] counters.  The exploration
    itself never reads [obs], so the visited schedule space is
    identical either way. *)

(* lint: allow unused-export — reference: the unpruned search DPOR must match *)
val enumerate :
  ?bounds:bounds ->
  ?shrink:bool ->
  ?max_cases:int ->
  ?baseline:int ->
  ?on_schedule:(Renaming_sched.Directed.choice array -> unit) ->
  ?obs:Renaming_obs.Obs.t ->
  seed:int64 ->
  Renaming_faults.Target.t ->
  stats
(** {!check}'s contract, explored by the unpruned enumerator:
    [s_races], [s_wakeups], [s_pruned] and [s_budget_skipped] stay 0. *)

val pp_stats : Format.formatter -> stats -> unit

val to_json : stats list -> Renaming_obs.Json.t
(** The [results/mcheck.json] payload (schema [renaming.mcheck/2]):
    per-target engine, schedule/race/wakeup/pruned counts, baseline and
    reduction ratio, violations with condensed traces, plus aggregate
    totals. *)
