(** Almost-tight loose renaming by geometric rounds — Lemma 6.

    With [n] TAS registers and [n] processes, the algorithm runs
    [ℓ·log log log n] rounds; round [i] consists of [2^i] steps, and in
    every step each still-unnamed process test-and-sets a uniformly
    random register (becoming inactive on a win).  Lemma 6: w.h.p. at
    most [2n/(log log n)^ℓ] processes remain unnamed, after a total of
    at most [(log log n)^ℓ] steps (up to the constant from the geometric
    sum).  The schedule is {!Renaming_plan.Plan.loose_geometric}, run by
    {!Renaming_sched.Plan_exec}. *)

type config = { n : int; ell : int }

val rounds : config -> int
(** [ℓ·⌈log log log n⌉]. *)

val step_budget : config -> int
(** Total steps a process can spend: [Σ_{i=1..rounds} 2^i]. *)

val predicted_unnamed : config -> float
(** Lemma 6's bound [2n/(log log n)^ℓ]. *)

type instrumentation = {
  named_in_round : int array;  (** wins per round, 1-based round index at [i-1] *)
}

val create_instrumentation : ?obs:Renaming_obs.Obs.t -> config -> instrumentation
(** With [obs], [named_in_round] is additionally registered as the
    read-through vector [loose-geometric/named_in_round]. *)

val stage : ?instr:instrumentation -> unit -> Renaming_sched.Plan_exec.stage
(** Lemma 6's telemetry, a {!Renaming_sched.Plan_exec.Rounds} stage:
    [loose-geometric/probes]/[wins] counters, one [round] span per segment,
    probe/win/give-up trace events, and with [instr] its wins per
    round.  {!Combined} reuses it for its first phase. *)

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
