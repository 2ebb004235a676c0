(** Almost-tight loose renaming by register clusters — Lemma 8.

    The [n] registers are split into clusters; cluster [j]
    ([1 ≤ j ≤ log log n]) holds [n/2^j] registers.  The algorithm runs
    one phase per cluster, each of [2ℓ·log log n] steps; in every step
    each unnamed process test-and-sets a uniform register *of the
    current cluster*.  Lemma 8: w.h.p. at most [n/(log n)^{2ℓ}]
    processes remain unnamed, with step complexity [2ℓ·(log log n)²].

    Taken literally, the clusters cover only [n − n/2^{log log n} ≈
    n − n/log n] registers, which would floor the unnamed count at
    [n/log n] — above the lemma's claim.  As documented in DESIGN.md §3
    we follow the evident intent: the last cluster absorbs the tail, so
    the clusters jointly cover the whole namespace.  The schedule is
    {!Renaming_plan.Plan.loose_clustered}, run by
    {!Renaming_sched.Plan_exec}. *)

type config = { n : int; ell : int }

val phases : config -> int
(** [⌈log log n⌉]. *)

val steps_per_phase : config -> int
(** [2ℓ·⌈log log n⌉]. *)

val step_budget : config -> int

val predicted_unnamed : config -> float
(** Lemma 8's expectation [n/(log n)^{2ℓ}]. *)

type instrumentation = { named_in_phase : int array }

val create_instrumentation : ?obs:Renaming_obs.Obs.t -> config -> instrumentation
(** With [obs], [named_in_phase] is additionally registered as the
    read-through vector [loose-clustered/named_in_phase]. *)

val stage : ?instr:instrumentation -> unit -> Renaming_sched.Plan_exec.stage
(** Lemma 8's telemetry, a {!Renaming_sched.Plan_exec.Rounds} stage:
    [loose-clustered/probes]/[wins] counters, one [phase] span per segment,
    probe/win/give-up trace events, and with [instr] its wins per
    phase.  {!Combined} reuses it for its first phase. *)

val instance :
  ?instr:instrumentation ->
  ?obs:Renaming_obs.Obs.t ->
  config ->
  stream:Renaming_rng.Stream.t ->
  Renaming_sched.Executor.instance

val run :
  ?instr:instrumentation ->
  ?obs:Renaming_obs.Obs.t ->
  ?adversary:Renaming_sched.Adversary.t ->
  config ->
  seed:int64 ->
  Renaming_sched.Report.t
