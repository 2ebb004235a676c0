(** The simulator's interpreter for probe plans ({!Renaming_plan.Plan}).

    [program plan ~rng] is one process running [plan]: it issues one
    [Tas_name] per step, drawing a probe's register from [rng], and
    returns the first name it wins, or [None] once the plan is spent.
    Every probe gets {!Retry.tas_name}'s fault handling: a [Faulted]
    answer is retried with the same backoff, and a TAS whose retries
    all fault counts as lost.

    A process is its position in the plan (segment, steps left, current
    register) in one mutable record, so a fault-free probe step builds
    its [Tas_name] and [Step] and nothing else.  The program returned is
    parked at the first probe, and its continuation restores that
    position before going on: a process restarted after a crash
    ({!Executor.run} reruns [instance.programs.(pid)]) re-issues the
    same first register and then draws from its stream where the stream
    has got to.  A program value therefore belongs to one execution:
    the executor may rerun it after a crash, but two executions cannot
    share it (build the instance afresh for each run). *)

type spans
(** The loose algorithms' telemetry, for one process: a [span] span per
    segment whose [span] argument is the segment index plus [first];
    [prefix/probes] and [prefix/wins] counters; [probe] (target), [win]
    ([span], name) and [give-up] instants; and [named.(segment)]
    incremented on a win.  Skipped (empty) segments record nothing. *)

val spans :
  ?named:int array ->
  ?obs:Renaming_obs.Obs.scoped ->
  prefix:string ->
  span:string ->
  first:int ->
  unit ->
  spans option
(** [None] when neither [named] nor [obs] is given. *)

val program :
  ?spans:spans ->
  ?rng:Renaming_rng.Xoshiro.t ->
  Renaming_plan.Plan.t ->
  int option Program.t
(** Raises [Invalid_argument] on reaching a non-empty [Probe] segment
    without [rng]. *)
